// Run supervisor: the one driver of amplified detection runs.
//
// A randomized detector errs one-sidedly and is amplified by independent
// repetitions (§6, Corollary 6.2). The Supervisor runs them: it streams
// repetition r, seeded repetition_seed(config.seed, r), through one
// RunBatch::stream call (workers run a bounded window ahead; the merge
// happens in repetition order on the calling thread, under
// merge_amplified's rules), so the aggregate is bit-identical at every
// --jobs count. At its defaults it is the plain amplified run — the
// detect_* wrappers, `csd detect`, `csd sweep` and the fuzz oracles all
// drive it — and it adds three robustness layers on top:
//
//   * deadlines — a per-repetition round budget (deterministic, checked on
//     the merged outcomes in repetition order) and a wall-clock deadline
//     (checked between repetitions; inherently nondeterministic, which is
//     why it only ever cuts *scheduling*, never changes a merged
//     repetition);
//   * stall reports — each repetition that ends stalled (cut by the
//     NetworkConfig::stall_window watchdog, crashed-out, or over its round
//     budget) is surfaced as a structured StallReport instead of a
//     silently weird aggregate;
//   * retry-with-reseed — a fault-killed repetition (it did not complete:
//     crashes or drops starved it, or the watchdog cut it) is re-run with a
//     seed derived deterministically from its repetition seed and attempt
//     number, up to a budget. Retries never touch healthy repetitions.
//
// Progress is checkpointed at repetition granularity: at the end of a call
// the Supervisor snapshots the aggregate (csd-ckpt-v1, kind "amplified"), and
// Supervisor::resume continues from any such snapshot — same verdicts,
// same FaultReport, same retry decisions — at any --jobs count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "congest/snapshot.hpp"
#include "obs/metrics.hpp"

namespace csd::congest {

/// How an amplified run schedules its repetitions.
struct AmplifyOptions {
  /// Worker threads fanning repetitions across a RunBatch; 1 = run inline
  /// on the calling thread, 0 = one per hardware thread. Outcomes are
  /// bit-identical for every value (see RunBatch's determinism contract).
  unsigned jobs = 1;
  /// Detection is one-sided (a Reject certifies a real copy of H), so once
  /// a repetition rejects, later repetitions cannot change the answer:
  /// stop after the first detecting repetition and record the rest in
  /// metrics.repetitions_skipped. Costs of skipped repetitions are not
  /// accounted. Disable to force the full cost of all repetitions (e.g.
  /// when measuring per-repetition round budgets).
  bool early_exit = true;
};

/// A fresh all-Accept aggregate for `n` nodes, ready for merge_amplified.
RunOutcome make_amplified_accumulator(Vertex n);

/// Fold one repetition's outcome into `combined`, the aggregate ACROSS
/// repetitions of a randomized detection algorithm (one-sided
/// amplification, as in §6 "putting everything together"):
///   * detected / faults.detected_by_survivors : OR,
///   * completed                               : AND,
///   * verdicts                                : elementwise (Reject wins),
///   * rounds / messages / total_bits          : summed,
///   * bits_sent_by_node                       : elementwise sum,
///   * max_message_bits                        : max,
///   * fault counters summed; crash/stall/violation lists and traces
///     concatenated in repetition order,
///   * metrics.counters                        : left empty (each
///     repetition's shard rows stay in its trace summary).
/// The Supervisor folds its repetitions through this in repetition order,
/// so the aggregate is the same at every jobs count; exposed for callers
/// that replay an amplified run repetition by repetition.
void merge_amplified(RunOutcome& combined, RunOutcome&& rep);

/// The seed of repetition `rep` of an amplified run with base seed `seed`
/// (derive_seed off a fixed tag plus `rep`). Every repetition loop seeds
/// through it (the Supervisor, the async CLI loop, the fuzz oracles), so
/// the same (seed, rep) names the same random run on every engine.
std::uint64_t repetition_seed(std::uint64_t seed, std::uint32_t rep);

/// AmplifyOptions (jobs, early exit) plus the supervision knobs. Early
/// exit reads each repetition's merged outcome, after its retries.
struct SupervisorConfig : AmplifyOptions {
  /// Wall-clock deadline in milliseconds, checked between repetitions
  /// (0 = none).
  /// On expiry the remaining repetitions are recorded as skipped, the
  /// aggregate-so-far is returned, and the checkpoint allows resuming.
  std::uint64_t deadline_ms = 0;
  /// Per-repetition round budget (0 = none): a repetition that runs this
  /// many rounds or more is flagged in a StallReport. Deterministic and
  /// jobs-invariant (evaluated on merged outcomes in repetition order).
  std::uint64_t round_budget = 0;
  /// Retries per fault-killed repetition (0 = never retry). Attempt k
  /// reruns with derive_seed(repetition_seed, 0x9e7 + k) — deterministic,
  /// so a resumed supervisor makes the very same retry decisions.
  std::uint32_t max_retries = 0;
  /// Cap on repetitions merged by one run/resume call (0 = no cap): a
  /// deterministic pause point for driving a long batch in slices — run
  /// this many, checkpoint, come back later. Unlike the wall-clock
  /// deadline this cut is reproducible at every --jobs count (no
  /// repetition past it is merged). Retries do not count against it.
  std::uint32_t max_reps_per_call = 0;
};

/// One repetition that ended unhealthy (after exhausting its retries).
struct StallReport {
  std::uint32_t repetition = 0;
  /// Seed of the attempt whose outcome was merged (last retry, if any).
  std::uint64_t seed = 0;
  /// Rounds the merged attempt executed before it was cut or gave up.
  std::uint64_t rounds = 0;
  /// Nodes alive but not halted when the repetition ended.
  std::uint32_t stalled_nodes = 0;
  bool watchdog = false;      ///< cut by the engine stall watchdog
  bool over_budget = false;   ///< rounds >= SupervisorConfig::round_budget
  bool incomplete = false;    ///< some node never halted (crash/starvation)
  /// The merged attempt's shard rows (empty unless
  /// ShardSpec::channel_counters): the per-worker shard_channel_* and
  /// shard_last_progress_w<N> counters that locate which worker stopped
  /// making progress. Its fault counts are the `watchdog`, `stalled_nodes`
  /// and `incomplete` fields above.
  obs::MetricsRegistry counters;
};

struct SupervisedResult {
  /// Aggregate over the merged repetitions, under merge_amplified's rules;
  /// metrics.repetitions_skipped is planned minus executed.
  RunOutcome outcome;
  std::uint32_t planned = 0;       ///< repetitions requested
  std::uint32_t retries_used = 0;  ///< total reseeded re-runs
  bool deadline_hit = false;       ///< wall-clock deadline expired
  /// max_reps_per_call cut scheduling with work left: resume from
  /// `checkpoint` to continue the slice sequence.
  bool paused = false;
  std::vector<StallReport> stalls; ///< unhealthy repetitions, in order
  /// Aggregate frozen after the last merged repetition (kind "amplified");
  /// null only when the call merged none. Feed to Supervisor::resume.
  std::shared_ptr<const Snapshot> checkpoint;
};

class Supervisor {
 public:
  /// One Network serves every repetition; each runs under `config`, its
  /// stall_window watchdog included.
  Supervisor(const Graph& topology, NetworkConfig config, SupervisorConfig sup);

  /// Drive `repetitions` repetitions (repetition r seeded
  /// repetition_seed(config.seed, r)) under supervision.
  SupervisedResult run(const ProgramFactory& factory,
                       std::uint32_t repetitions) const;

  /// Continue from an amplified checkpoint captured by run/resume with the
  /// same topology, config, seed, and repetition count (identity digests
  /// CHECKed). The snapshot's accounting must be one the Supervisor can
  /// write — repetitions_executed == next_repetition, repetitions_skipped
  /// == 0, detected set exactly when some verdict_reject is — or the call
  /// fails naming the key. Bit-identical continuation: verdicts,
  /// FaultReport, and retry decisions all match the uninterrupted run; the
  /// trace covers only the repetitions merged after the resume point.
  SupervisedResult resume(const ProgramFactory& factory,
                          std::uint32_t repetitions,
                          const Snapshot& snapshot) const;

 private:
  SupervisedResult drive(const ProgramFactory& factory,
                         std::uint32_t repetitions,
                         const Snapshot* resume_from) const;

  Network net_;
  SupervisorConfig sup_;
};

}  // namespace csd::congest
