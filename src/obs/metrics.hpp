// Named-counter registry + engine wall-clock timers.
//
// MetricsRegistry holds the round kernel's opt-in shard_* rows
// (ShardSpec::channel_counters): per-worker channel traffic and progress,
// which depend on the worker count, so only a run that asks for them
// records them. A run's fault counts have one home, its FaultReport: the
// engines write a trace summary's counter block from the report's rows
// (fault_rows) plus these, and RunTrace keeps the block's non-zero entries
// only, so fault-free sync and async traces stay byte-identical.
//
// EngineTimers is the *only* wall-clock data the observability layer keeps,
// and it deliberately lives outside RunTrace: trace output is a pure
// function of the recorded model-level data (bit-identical across runs,
// thread counts, and machines), while nanosecond timings are none of those
// things. Timing is opt-in via TraceOptions::timers and costs two
// steady_clock reads per round (sync) / per event (async) when enabled,
// nothing when disabled.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csd::obs {

/// Insertion-ordered named counters. Linear-scan lookup: registries hold a
/// dozen engine counters, not a metrics database.
class MetricsRegistry {
 public:
  /// Accumulate `delta` into `name`, creating the entry (value 0) on first
  /// use. Entries keep first-add order.
  void add(std::string_view name, std::uint64_t delta);

  /// Value of `name`; 0 if never added.
  std::uint64_t value(std::string_view name) const noexcept;

  const std::vector<std::pair<std::string, std::uint64_t>>& entries()
      const noexcept {
    return entries_;
  }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

/// Canonical name of a per-worker engine counter ("<base>_w<worker>",
/// e.g. "shard_channel_bytes_w3"). One formatter so the round kernel,
/// the tests, and the trace tooling never drift on the spelling.
std::string worker_counter_name(std::string_view base, std::uint32_t worker);

/// Sender-side wall-clock split of where a run's time went. Buckets:
///   * compute_ns   — node programs (NodeProgram::on_round);
///   * delivery_ns  — message delivery (sync) / synchronizer + frame
///                    delivery events (async), net of nested compute;
///   * transport_ns — reliable-transport events: acks and retransmission
///                    timers (async engine only; always 0 on the sync one).
/// `enabled` records whether timing ran at all (so an all-zero split from a
/// sub-nanosecond run is distinguishable from timing being off).
struct EngineTimers {
  bool enabled = false;
  std::uint64_t compute_ns = 0;
  std::uint64_t delivery_ns = 0;
  std::uint64_t transport_ns = 0;

  std::uint64_t total_ns() const noexcept {
    return compute_ns + delivery_ns + transport_ns;
  }

  void merge(const EngineTimers& other) noexcept {
    enabled = enabled || other.enabled;
    compute_ns += other.compute_ns;
    delivery_ns += other.delivery_ns;
    transport_ns += other.transport_ns;
  }
};

}  // namespace csd::obs
