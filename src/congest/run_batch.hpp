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
// Both entry points hand outcomes over in task order. stream() passes each
// one to a consumer on the calling thread as soon as every lower-indexed
// one has been passed, and workers run at most 2 * jobs tasks ahead of it,
// so a batch of any length holds a bounded number of outcomes; execute()
// is stream() collecting them into a vector. Early exit (one-sided
// detection) is therefore deterministic: the consumer stops at r* = the
// lowest-indexed task that detects, and whatever a parallel worker
// finished beyond r* is discarded. The result is a pure function of the
// task list — the same at --jobs 1, 4, or hardware_concurrency.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "congest/network.hpp"

namespace csd::congest {

/// Resolve a jobs knob: 0 = one worker per hardware thread (minimum 1).
unsigned resolve_jobs(unsigned jobs) noexcept;

class RunBatch {
 public:
  /// `jobs` worker threads per execute() call; 0 = hardware_concurrency.
  explicit RunBatch(unsigned jobs = 0);

  unsigned jobs() const noexcept { return jobs_; }

  /// One independent run: network and factory must outlive execute(), and
  /// both must be safe to use from multiple threads (see Network::run).
  struct Task {
    const Network* network = nullptr;
    const ProgramFactory* factory = nullptr;
    std::uint64_t seed = 0;
  };

  struct Result {
    /// outcomes[i] is engaged iff task i is part of the deterministic
    /// prefix (always, unless cut by stop_after_detection), in task order.
    std::vector<std::optional<RunOutcome>> outcomes;
    std::uint32_t executed = 0;  // engaged outcomes
    std::uint32_t skipped = 0;   // tasks beyond the early-exit cut
  };

  /// Run all tasks. With `stop_after_detection`, the result is cut after
  /// the lowest-indexed detecting task (detection is one-sided, so later
  /// tasks cannot change the answer). If a task throws (e.g. CheckFailure
  /// from a mis-budgeted program), the exception of the lowest-indexed
  /// throwing task inside the deterministic prefix is rethrown — exactly
  /// what a sequential loop would have surfaced.
  Result execute(const std::vector<Task>& tasks,
                 bool stop_after_detection = false) const;

  /// Run task_at(i) for i = 0, 1, ... < count on the worker group and hand
  /// each outcome to consume(i, outcome) on the calling thread, in index
  /// order, until consume returns false. task_at is called from the
  /// workers. Returns the number of outcomes consumed. A task's exception
  /// is rethrown when the consumer reaches its index.
  std::uint32_t stream(
      std::uint32_t count, const std::function<Task(std::uint32_t)>& task_at,
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
