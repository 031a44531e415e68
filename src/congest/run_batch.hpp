// Deterministic parallel run driver.
//
// Every measurement in this reproduction funnels through many independent
// Network::run invocations — amplification repetitions, seed sweeps, size
// sweeps. Each run is a pure function of (topology, config, factory, seed):
// node randomness is derived per node from the run seed, the fault injector
// is seeded per link, and runs share no mutable state. RunBatch exploits
// exactly that purity: it fans runs across a fixed-size worker group and
// guarantees BIT-IDENTICAL results regardless of the thread count, because
// parallelism only changes *when* a run executes, never what it computes.
//
// stream() hands outcomes over in index order: it passes each one to a
// consumer on the calling thread as soon as every lower-indexed one has
// been passed, and workers run at most 2 * jobs runs ahead of it, so a
// stream of any length holds a bounded number of outcomes. A cut is
// therefore deterministic: when the consumer stops at index r* (the
// Supervisor's one-sided early exit stops at the lowest-indexed detecting
// repetition), whatever a parallel worker finished beyond r* is discarded.
// The consumed prefix is a pure function of the runs — the same at --jobs
// 1, 4, or hardware_concurrency. for_each_index is the unordered fan-out
// for work that folds its per-index results afterwards.
#pragma once

#include <cstdint>
#include <functional>

#include "congest/network.hpp"

namespace csd::congest {

/// Resolve a jobs knob: 0 = one worker per hardware thread (minimum 1).
unsigned resolve_jobs(unsigned jobs) noexcept;

class RunBatch {
 public:
  /// `jobs` worker threads per stream() or for_each_index() call;
  /// 0 = hardware_concurrency.
  explicit RunBatch(unsigned jobs = 0);

  /// Call run_at(i) for i = 0, 1, ... < count on the worker group and hand
  /// each outcome to consume(i, outcome) on the calling thread, in index
  /// order, until consume returns false. run_at is called from the
  /// workers, so whatever it reads must be safe to share (a const Network
  /// and a library program factory are: see Network::run). Returns the
  /// number of outcomes consumed. A run's exception is rethrown when the
  /// consumer reaches its index, so the lowest-indexed one inside the
  /// consumed prefix surfaces — exactly what a sequential loop would have
  /// surfaced.
  std::uint32_t stream(
      std::uint32_t count,
      const std::function<RunOutcome(std::uint32_t)>& run_at,
      const std::function<bool(std::uint32_t, RunOutcome&&)>& consume) const;

  /// Generic deterministic fan-out: invoke `fn(i)` for i in [0, count),
  /// distributed over the worker group. `fn` must only touch per-index
  /// state (write results into slot i of a pre-sized vector); reduce
  /// sequentially afterwards to keep floating-point sums bit-stable.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn) const;

 private:
  unsigned jobs_;
};

}  // namespace csd::congest
