// Run supervisor for long amplified detection runs.
//
// run_amplified answers "what does the algorithm say" for a batch of
// repetitions; the Supervisor answers "keep a long batch alive and
// restartable on real hardware". It streams repetitions through one
// RunBatch::stream call (workers run a bounded window ahead; the merge
// happens in repetition order on the calling thread) and adds three
// robustness layers on top of the same aggregation rules (merge_amplified,
// so the answer is bit-identical to run_amplified when nothing goes wrong):
//
//   * deadlines — a per-repetition round budget (deterministic, checked on
//     the merged outcomes in repetition order) and a wall-clock deadline
//     (checked between repetitions; inherently nondeterministic, which is
//     why it only ever cuts *scheduling*, never changes a merged
//     repetition);
//   * a stall watchdog — NetworkConfig::stall_window is applied to every
//     repetition, and each repetition that ends stalled (watchdog cut,
//     crashed-out, or over its round budget) is surfaced as a structured
//     StallReport instead of a silently weird aggregate;
//   * retry-with-reseed — a fault-killed repetition (it did not complete:
//     crashes or drops starved it, or the watchdog cut it) is re-run with a
//     seed derived deterministically from its repetition seed and attempt
//     number, up to a budget. Retries never touch healthy repetitions, so
//     the fault-free path stays byte-identical to run_amplified.
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

struct SupervisorConfig {
  /// Worker threads (RunBatch semantics: outcomes are
  /// bit-identical at every value). 0 = one per hardware thread.
  unsigned jobs = 1;
  /// Stop scheduling after the first repetition whose merged outcome —
  /// after its retries — detects (one-sided detection; mirrors
  /// AmplifyOptions::early_exit).
  bool early_exit = true;
  /// Wall-clock deadline in milliseconds, checked between repetitions
  /// (0 = none).
  /// On expiry the remaining repetitions are recorded as skipped, the
  /// aggregate-so-far is returned, and the checkpoint allows resuming.
  std::uint64_t deadline_ms = 0;
  /// Per-repetition round budget (0 = none): a repetition that runs this
  /// many rounds or more is flagged in a StallReport. Deterministic and
  /// jobs-invariant (evaluated on merged outcomes in repetition order).
  std::uint64_t round_budget = 0;
  /// Engine stall watchdog applied to every repetition (0 = keep the
  /// NetworkConfig::stall_window the caller already set).
  std::uint64_t stall_window = 0;
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
  /// The merged attempt's engine counters (fault counters, checkpoint
  /// count, and — with ShardSpec::channel_counters — the
  /// per-worker shard_channel_* and shard_last_progress_w<N> counters that
  /// locate which worker stopped making progress).
  obs::MetricsRegistry counters;
};

struct SupervisedResult {
  /// Aggregate over the merged repetitions, under run_amplified's exact
  /// rules. metrics.counters is rebuilt from the merged FaultReport so the
  /// run and resume paths report identically.
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
  /// The config's stall_window is overridden by SupervisorConfig's when
  /// that one is nonzero. The topology is copied (Network semantics).
  Supervisor(Graph topology, NetworkConfig config, SupervisorConfig sup);

  /// Drive `repetitions` repetitions (seeded exactly like run_amplified:
  /// derive_seed(config.seed, 0x5eed + rep)) under supervision.
  SupervisedResult run(const ProgramFactory& factory,
                       std::uint32_t repetitions) const;

  /// Continue from an amplified checkpoint captured by run/resume with the
  /// same topology, config, seed, and repetition count (identity digests
  /// CHECKed). Bit-identical continuation: verdicts, FaultReport, and retry
  /// decisions all match the uninterrupted run; the trace covers only the
  /// repetitions merged after the resume point.
  SupervisedResult resume(const ProgramFactory& factory,
                          std::uint32_t repetitions,
                          const Snapshot& snapshot) const;

  const Network& network() const noexcept { return net_; }

 private:
  SupervisedResult drive(const ProgramFactory& factory,
                         std::uint32_t repetitions,
                         const Snapshot* resume_from) const;

  Network net_;
  SupervisorConfig sup_;
};

}  // namespace csd::congest
