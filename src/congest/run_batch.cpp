#include "congest/run_batch.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace csd::congest {

unsigned resolve_jobs(unsigned jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

RunBatch::RunBatch(unsigned jobs) : jobs_(resolve_jobs(jobs)) {}

std::uint32_t RunBatch::stream(
    std::uint32_t count,
    const std::function<RunOutcome(std::uint32_t)>& run_at,
    const std::function<bool(std::uint32_t, RunOutcome&&)>& consume) const {
  const std::uint32_t workers = std::min(jobs_, count);
  std::uint32_t consumed = 0;
  if (workers <= 1) {
    // Inline sequential path: the reference semantics the parallel path
    // must reproduce bit-for-bit.
    while (consumed < count) {
      const bool more = consume(consumed, run_at(consumed));
      ++consumed;
      if (!more) break;
    }
    return consumed;
  }

  // Run i's outcome (or exception) waits in slot i % window until the
  // consumer takes it; a worker claims run i only once run i - window has
  // been taken, which bounds the outcomes held at `window`.
  struct Slot {
    std::optional<RunOutcome> outcome;
    std::exception_ptr error;
    bool ready = false;
  };
  const std::uint32_t window = 2 * workers;
  std::vector<Slot> slots(window);
  std::mutex mutex;
  std::condition_variable slot_ready, slot_free;
  std::uint32_t next = 0, taken = 0;
  bool stop = false;
  const auto work = [&] {
    for (;;) {
      std::uint32_t i = 0;
      {
        std::unique_lock lock(mutex);
        slot_free.wait(lock, [&] {
          return stop || next == count || next < taken + window;
        });
        if (stop || next == count) return;
        i = next++;
      }
      Slot done;
      try {
        done.outcome = run_at(i);
      } catch (...) {
        done.error = std::current_exception();
      }
      done.ready = true;
      {
        const std::lock_guard lock(mutex);
        slots[i % window] = std::move(done);
      }
      slot_ready.notify_one();
    }
  };
  std::vector<std::thread> pool;
  const auto stop_and_join = [&] {
    {
      const std::lock_guard lock(mutex);
      stop = true;
    }
    slot_free.notify_all();
    for (auto& thread : pool) thread.join();
  };
  try {
    pool.reserve(workers);
    for (std::uint32_t t = 0; t < workers; ++t) pool.emplace_back(work);
    while (consumed < count) {
      Slot slot;
      {
        std::unique_lock lock(mutex);
        Slot& waiting = slots[consumed % window];
        slot_ready.wait(lock, [&] { return waiting.ready; });
        slot = std::exchange(waiting, Slot{});
        ++taken;
      }
      slot_free.notify_one();
      if (slot.error) std::rethrow_exception(slot.error);
      const bool more = consume(consumed, std::move(*slot.outcome));
      ++consumed;
      if (!more) break;
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
  stop_and_join();
  return consumed;
}

void RunBatch::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  const std::size_t workers = std::min<std::size_t>(jobs_, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(work);
  for (auto& thread : pool) thread.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace csd::congest
