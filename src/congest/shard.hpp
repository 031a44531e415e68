// Internal: the synchronous round kernel behind Network::run — the one
// implementation of CONGEST round semantics (DESIGN.md §12, §15).
//
// A deterministic Partition assigns each node to one of
// W = max(1, ShardSpec::workers) workers, and every executed round is one
// Pregel-style superstep: phase A runs each worker's due nodes and scans
// their outboxes in ascending vertex / dense-edge order, landing local
// frames and listing the edges of cross-worker ones in channels; phase B
// (W >= 2) lands the channels' edges in (src_worker, edge) order; the
// barrier folds the workers' accounting, fault lists, flight-recorder
// events and activity state in that global order. Landing a frame sets one
// inbox presence byte: its payload stays in the sender's slot of the
// round's send arena, where the receiver reads it next round, and the
// kernel alternates two send arenas (congest/frame_arena.hpp). W = 1 runs
// inline on the calling thread with no threads, no channels, and the trace
// and the run's MessageObserver called directly from the scan.
//
// Activity-driven rounds at every W: wake[v], written only by v's owner,
// is the round v runs next (its NodeApi::sleep_until hint folded with its
// crash round, pulled in by mail), and after a round that landed no frame
// the kernel jumps to the earliest wake, stall round or max_rounds.
//
// Contract: every model-exact output (verdicts, RunMetrics, FaultReport,
// traces, the observer's events) is bit-identical at any W, either
// partition policy and any --jobs, and identical to a run that ignores the
// hint. At W >= 2 node programs of one run execute concurrently, so a
// ProgramFactory must not share mutable state between its program
// instances (the library's never do).
#pragma once

#include "congest/network.hpp"

namespace csd::congest::detail {

struct RunWorkspace;  // congest/node_state.hpp

/// Run `factory` on `net` from round 0 to completion (or the round cap) in
/// `workspace` (one of `net`'s, reset here), calling `observe` (when set)
/// once per sent message.
RunOutcome run_rounds(const Network& net, RunWorkspace& workspace,
                      const ProgramFactory& factory, std::uint64_t seed,
                      const MessageObserver& observe);

}  // namespace csd::congest::detail
