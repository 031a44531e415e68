// csd-metrics-v2: the always-on telemetry plane.
//
// Three pieces, one object (`Telemetry`):
//
//   1. A typed metric plane — monotonic counters, gauges with high-water
//      tracking, and power-of-two-bucket histograms — registered by stable
//      name. Registration takes a mutex once; the returned handles update
//      relaxed atomics, so the hot path is lock-free and safe from any
//      engine/worker thread. An engine's counters are its runs' own
//      counts, published as rows by RowPublisher (DESIGN.md §14).
//   2. A fixed-capacity lock-free flight recorder: a ring buffer of recent
//      engine events (superstep barriers, channel exchanges, ARQ
//      retransmits, CRC rejects, fault injections, checkpoint saves,
//      watchdog ticks, ...). Writers claim a slot with one fetch_add and
//      stamp it on completion; the post-mortem dump skips slots caught
//      mid-write, so a torn slot costs one event, never a lock.
//   3. A periodic sampler thread that snapshots the metric plane into an
//      append-only JSONL series (one `csd-metrics-v2` object per line).
//      The thread exists only while a series file is configured — the
//      zero-cost contract is structural, not a flag check.
//
// Determinism contract (same rule as EngineTimers, obs/metrics.hpp): the
// telemetry plane is write-only from the engines' point of view. Engines
// never read a metric back, so attaching a Telemetry cannot change a
// verdict, a trace byte, or a FaultReport at any workers x jobs. Wall-clock
// epochs live only in the series stream and the black-box dump — never in
// csd-trace-v2 or any other deterministic artifact.
//
// The black-box dump (`csd-blackbox-v1`) renders the ring plus a final
// metric snapshot as one JSON document. It is written on abnormal ends:
// FaultReport violations, supervisor StallReports, failed resume digests,
// fatal signals (the CLI owns the triggers; see tools/cli.cpp).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace csd::obs {

/// What happened. kEventKindNames holds the wire strings of csd-blackbox-v1,
/// which `csd postmortem` counts by kind.
enum class EventKind : std::uint8_t {
  SuperstepBarrier,   ///< sync kernel, W >= 2: one superstep's barrier
  ChannelExchange,    ///< sync kernel, W >= 2: one worker's remote frames
  Retransmit,         ///< ARQ timer fired, packet resent
  ChecksumReject,     ///< CRC mismatch, packet discarded
  FrameDropped,       ///< fault injection: transmission dropped
  FrameCorrupted,     ///< fault injection: payload bit flipped
  NodeCrash,          ///< node fell silent (scheduled crash or program fault)
  NodeRecover,        ///< crashed node rejoined under a RecoveryPolicy
  CheckpointSave,     ///< csd-ckpt-v1 snapshot captured
  WatchdogStall,      ///< stall watchdog cut the run
  Violation,          ///< clamped protocol violation
  StallReport,        ///< supervisor flagged an unhealthy repetition
  ResumeReject,       ///< snapshot failed the identity-digest check
  FatalSignal,        ///< process-level signal (CLI handler)
};

inline constexpr std::array<const char*, 14> kEventKindNames = {
    "superstep_barrier", "channel_exchange", "retransmit",
    "checksum_reject",   "frame_dropped",    "frame_corrupted",
    "node_crash",        "node_recover",     "checkpoint_save",
    "watchdog_stall",    "violation",        "stall_report",
    "resume_reject",     "fatal_signal"};

inline const char* to_string(EventKind kind) noexcept {
  return kEventKindNames[static_cast<std::size_t>(kind)];
}

/// One flight-recorder entry. `actor` is a node, worker, or repetition
/// index (kind-dependent); `at` is model time (round / pulse / wave);
/// `value` is a kind-specific payload (bits, sequence number, signal...).
/// `epoch_ms` is the wall clock — post-mortem only, see the header comment.
struct FlightEvent {
  EventKind kind = EventKind::SuperstepBarrier;
  std::uint32_t actor = 0;
  std::uint64_t at = 0;
  std::uint64_t value = 0;
  std::uint64_t epoch_ms = 0;
};

/// The metric plane at one instant, names in sorted order: one
/// csd-metrics-v2 series line, or (without its first three members) a dump's
/// `metrics`.
struct MetricsSample {
  std::uint64_t sample = 0;
  std::uint64_t epoch_ms = 0;
  std::uint64_t events_recorded = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// name -> (value, high_water).
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      gauges;
  /// name -> sparse (bucket, count) pairs; bucket i >= 1 covers
  /// [2^(i-1), 2^i), bucket 0 counts zeros.
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::uint64_t, std::uint64_t>>>>
      histograms;

  std::uint64_t counter(const std::string& name) const;
};

/// A csd-blackbox-v1 document: the ring, oldest first (its `events_kept` is
/// events.size()), and a final metric snapshot.
struct BlackboxDump {
  std::string reason;
  std::uint64_t epoch_ms = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t torn = 0;
  std::vector<FlightEvent> events;
  MetricsSample metrics;
};

/// The csd-metrics-v2 and csd-blackbox-v1 field lists (obs/codec.hpp):
/// Telemetry encodes, parse_metrics_series and `csd postmortem` decode.
inline constexpr auto gauge_fields = [](auto& io, auto& r) {
  io("value", r.first);
  io("high_water", r.second);
};

inline constexpr auto metric_plane_fields = [](auto& io, auto& r) {
  io("counters", r.counters);
  io("gauges", r.gauges, gauge_fields);
  io("histograms", r.histograms);
};

inline constexpr auto metrics_sample_fields = [](auto& io, auto& r) {
  io.tag("schema", "csd-metrics-v2");
  io("sample", r.sample);
  io("epoch_ms", r.epoch_ms);
  io("events_recorded", r.events_recorded);
  metric_plane_fields(io, r);
};

inline constexpr auto flight_event_fields = [](auto& io, auto& r) {
  io("kind", r.kind, kEventKindNames);
  io("actor", r.actor);
  io("at", r.at);
  io("value", r.value);
  io("epoch_ms", r.epoch_ms);
};

inline constexpr auto blackbox_fields = [](auto& io, auto& r) {
  io.tag("schema", "csd-blackbox-v1");
  io("reason", r.reason);
  io("epoch_ms", r.epoch_ms);
  io("events_recorded", r.events_recorded);
  std::uint64_t kept = r.events.size();
  io("events_kept", kept);
  io("torn", r.torn);
  io("events", r.events, flight_event_fields);
  CSD_CHECK_MSG(kept == r.events.size(), "key 'events_kept' is "
                                             << kept << " but 'events' holds "
                                             << r.events.size());
  io("metrics", r.metrics, metric_plane_fields);
};

/// Handle to one registered counter. Copyable, trivially destructible; the
/// pointed-to cell lives as long as the Telemetry. A default-constructed
/// handle is inert (updates are dropped) so callers can hold one
/// unconditionally.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const noexcept {
    if (cell_ != nullptr)
      cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Telemetry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Handle to one registered gauge: last-set value plus a monotone
/// high-water mark (occupancy peaks survive the sampler's cadence).
class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t v) const noexcept {
    if (value_ == nullptr) return;
    value_->store(v, std::memory_order_relaxed);
    std::uint64_t high = high_->load(std::memory_order_relaxed);
    while (v > high &&
           !high_->compare_exchange_weak(high, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const noexcept {
    return value_ == nullptr ? 0 : value_->load(std::memory_order_relaxed);
  }
  std::uint64_t high_water() const noexcept {
    return high_ == nullptr ? 0 : high_->load(std::memory_order_relaxed);
  }

 private:
  friend class Telemetry;
  Gauge(std::atomic<std::uint64_t>* value, std::atomic<std::uint64_t>* high)
      : value_(value), high_(high) {}
  std::atomic<std::uint64_t>* value_ = nullptr;
  std::atomic<std::uint64_t>* high_ = nullptr;
};

/// Handle to one registered power-of-two-bucket histogram: observe(v)
/// increments bucket floor(log2(v)) + 1 (bucket 0 counts v == 0), so
/// bucket i >= 1 holds values in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  Histogram() = default;
  void observe(std::uint64_t v) const noexcept {
    if (cells_ == nullptr) return;
    std::size_t bucket = 0;
    while (v != 0) {
      ++bucket;
      v >>= 1;
    }
    cells_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class Telemetry;
  explicit Histogram(std::atomic<std::uint64_t>* cells) : cells_(cells) {}
  std::atomic<std::uint64_t>* cells_ = nullptr;
};

/// The telemetry plane. Construct one per process (or per test), hand a
/// raw pointer to the engines via NetworkConfig / AsyncConfig, destroy
/// after the run. Thread-safe throughout; destruction joins the sampler.
class Telemetry {
 public:
  /// `ring_capacity` is rounded up to a power of two (minimum 64).
  explicit Telemetry(std::size_t ring_capacity = 4096);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // -- metric plane ------------------------------------------------------
  // Registration by stable name: the same name always returns a handle to
  // the same cell. Takes the registry mutex; call once per run, not per
  // round. A name registered as one type must not be re-registered as
  // another (checked).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  // -- flight recorder ---------------------------------------------------
  /// Lock-free: one fetch_add plus five relaxed stores and one release
  /// store. Safe from any thread.
  void record(EventKind kind, std::uint32_t actor, std::uint64_t at,
              std::uint64_t value = 0) noexcept;

  /// Events currently readable from the ring, oldest first. Slots caught
  /// mid-write are skipped (counted in the dump's `torn` field).
  std::vector<FlightEvent> events() const;

  /// Total events ever recorded (including those the ring has overwritten).
  std::uint64_t events_recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  // -- sampler -----------------------------------------------------------
  /// Start the periodic sampler: append one csd-metrics-v2 JSONL sample to
  /// `path` every `period_ms`. No-op if already sampling. Throws
  /// CheckFailure if the file cannot be opened.
  void start_sampler(const std::string& path, std::uint64_t period_ms);
  /// Stop the sampler thread, write one final sample, close the file.
  /// Idempotent; also run by the destructor.
  void stop_sampler();
  bool sampling() const noexcept { return sampler_.joinable(); }

  // -- snapshots / post-mortem ------------------------------------------
  /// The metric plane as a dump's `metrics` object (metric_plane_fields).
  Json metrics_json() const;

  /// The full csd-blackbox-v1 document (BlackboxDump).
  Json blackbox_json(const std::string& reason) const;

  /// Write blackbox_json(reason) to `path` (pretty-printed). Best-effort:
  /// returns false instead of throwing (this runs on failure paths and in
  /// signal handlers).
  bool dump_blackbox(const std::string& path,
                     const std::string& reason) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  // seq + 1 once fully written
    FlightEvent event;
  };

  MetricsSample snapshot() const;
  void sampler_loop();
  void write_sample(std::uint64_t index);

  // Registry. Deques-by-unique_ptr keep cell addresses stable across
  // registration; entries are never removed.
  struct NamedCell {
    std::string name;
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;  // 1, 2, or kBuckets
  };
  mutable std::mutex registry_mutex_;
  std::vector<NamedCell> counters_;
  std::vector<NamedCell> gauges_;
  std::vector<NamedCell> histograms_;
  /// The `width` cells registered under `name` in `kind`, made on first use.
  std::atomic<std::uint64_t>* cells(std::vector<NamedCell>& kind,
                                    const std::string& name, std::size_t width);

  // Ring.
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};

  // Sampler.
  std::mutex sampler_mutex_;
  std::condition_variable sampler_cv_;
  bool sampler_quit_ = false;
  std::uint64_t sampler_period_ms_ = 250;
  std::uint64_t sample_index_ = 0;
  std::string series_path_;
  std::thread sampler_;
};

/// A run's counts on the plane. An engine counts each event once, in its
/// run's outcome, and lists the outcome's counts as rows: rows(visit) calls
/// visit(name, value), or visit(name, value, w) for worker w's share. Each
/// row's counter, prefix + name (worker_counter_name of that for a share),
/// is looked up once, and the values at construction count as published,
/// so a resumed run's restored totals are not published again. publish()
/// adds each row's change since the last publish without allocating or
/// looking up a name. Without a telemetry plane it does nothing.
class RowPublisher {
 public:
  RowPublisher() = default;

  template <typename Rows>
  RowPublisher(Telemetry* telemetry, std::string_view prefix,
              const Rows& rows) {
    if (telemetry == nullptr) return;
    rows([&](std::string_view name, std::uint64_t value, auto... worker) {
      std::string full = std::string(prefix).append(name);
      if constexpr (sizeof...(worker) > 0)
        full = worker_counter_name(full, worker...);
      rows_.emplace_back(telemetry->counter(full), value);
    });
  }

  template <typename Rows>
  void publish(const Rows& rows) noexcept {
    if (rows_.empty()) return;
    std::size_t next = 0;
    rows([&](std::string_view, std::uint64_t value, auto...) {
      auto& [counter, published] = rows_[next++];
      if (value != published) counter.add(value - published);
      published = value;
    });
  }

 private:
  std::vector<std::pair<Counter, std::uint64_t>> rows_;  // (cell, published)
};

}  // namespace csd::obs
