// Internal: the sharded superstep engine behind NetworkConfig::shard.
//
// Network::run_impl dispatches here when shard.workers >= 1. The engine
// runs the same CONGEST round semantics as the classic single-loop path,
// Pregel-style: a deterministic Partition assigns each node to one of W
// workers, every worker executes its owned nodes' compute + outbox scan in
// ascending vertex order (superstep phase A), cross-worker frames travel
// through per-worker-pair ShardChannels exchanged at the barrier, and
// destination workers drain their incoming channels in (src_worker, dense
// edge index) order (phase B). Workers vote to halt once every owned node
// is halted or crashed, and skip their superstep until a frame arrives for
// a checkpoint log (none can: halted nodes never recover under this
// engine, so the vote is final).
//
// Hard contract, tested by test_shard and gated by the shard-determinism
// CI job: every outcome field that the classic engine promises to be
// bit-identical at any --jobs (verdicts, FaultReport, accounting,
// csd-trace-v2 traces, transcripts, csd-ckpt-v1 snapshots) is additionally
// bit-identical at any worker count W and either partition policy. The two
// ingredients:
//   * all order-sensitive side effects (trace records, transcript entries,
//     on_message callbacks, violation and crash lists) are buffered
//     per-worker in ascending order and replayed on the coordinating
//     thread in the global merge order (ascending vertex / dense edge
//     index per round) — exactly the classic engine's iteration order;
//   * everything else the round loop touches is naturally order-free:
//     fault fates are per-link RNG streams, per-round trace rows are sums,
//     inbox slots and log rows are per-(node, port) cells, and accounting
//     is sums/maxes folded at the barrier.
//
// The engine ignores the NodeApi::sleep_until activity hint (DESIGN.md
// §15) and runs every unhalted node in every round, which makes it the
// hint-ignoring reference the classic engine's idle-round skipping is
// checked against.
//
// Caveats a caller inherits by turning sharding on: node programs of one
// run execute concurrently, so a custom ProgramFactory must not share
// mutable state between its program instances (the library's never do),
// and ShardSpec::combiner runs on worker threads (keep it pure).
#pragma once

#include "congest/network.hpp"

namespace csd::congest::detail {

/// Sharded equivalent of the classic run loop; same inputs, bit-identical
/// outputs. `resume_from` replays a csd-ckpt-v1 sync snapshot exactly like
/// Network::resume — snapshots do not record the worker count that took
/// them, so any W resumes any snapshot.
RunOutcome run_sharded(const Network& net, const ProgramFactory& factory,
                       std::uint64_t seed, const SyncSnapshot* resume_from);

}  // namespace csd::congest::detail
