#include "obs/metrics_v2.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/codec.hpp"
#include "support/check.hpp"

namespace csd::obs {

namespace {

std::uint64_t wall_epoch_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t MetricsSample::counter(const std::string& name) const {
  for (const auto& [key, value] : counters)
    if (key == name) return value;
  return 0;
}

Telemetry::Telemetry(std::size_t ring_capacity) {
  std::size_t cap = 64;
  while (cap < ring_capacity) cap <<= 1;
  slots_ = std::vector<Slot>(cap);
  mask_ = cap - 1;
}

Telemetry::~Telemetry() { stop_sampler(); }

std::atomic<std::uint64_t>* Telemetry::cells(std::vector<NamedCell>& kind,
                                             const std::string& name,
                                             std::size_t width) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (NamedCell& cell : kind)
    if (cell.name == name) return cell.cells.get();
  // make_unique value-initializes: every new cell starts at 0.
  kind.push_back(
      {name, std::make_unique<std::atomic<std::uint64_t>[]>(width)});
  return kind.back().cells.get();
}

Counter Telemetry::counter(const std::string& name) {
  return Counter(cells(counters_, name, 1));
}

Gauge Telemetry::gauge(const std::string& name) {
  std::atomic<std::uint64_t>* const value_and_high = cells(gauges_, name, 2);
  return Gauge(value_and_high, value_and_high + 1);
}

Histogram Telemetry::histogram(const std::string& name) {
  return Histogram(cells(histograms_, name, Histogram::kBuckets));
}

void Telemetry::record(EventKind kind, std::uint32_t actor, std::uint64_t at,
                       std::uint64_t value) noexcept {
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  // Invalidate first so a concurrent reader of the previous occupant
  // notices the rewrite in progress, then stamp on completion.
  slot.stamp.store(0, std::memory_order_relaxed);
  slot.event = {kind, actor, at, value, wall_epoch_ms()};
  slot.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> Telemetry::events() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t seq = first; seq < head; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1)
      continue;  // torn or already overwritten by a racing writer
    const FlightEvent event = slot.event;
    // Re-check the stamp: if a writer lapped us mid-copy the fields above
    // may be torn — drop the event instead of reporting garbage.
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    out.push_back(event);
  }
  return out;
}

MetricsSample Telemetry::snapshot() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto load = [](const NamedCell& cell, std::size_t i) {
    return cell.cells[i].load(std::memory_order_relaxed);
  };
  MetricsSample plane;
  for (const NamedCell& cell : counters_)
    plane.counters.emplace_back(cell.name, load(cell, 0));
  for (const NamedCell& cell : gauges_)
    plane.gauges.emplace_back(cell.name,
                              std::pair{load(cell, 0), load(cell, 1)});
  for (const NamedCell& cell : histograms_) {
    auto& [name, buckets] = plane.histograms.emplace_back();
    name = cell.name;
    // Sparse: (bucket, count) pairs for non-empty buckets only.
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
      if (const std::uint64_t count = load(cell, i); count != 0)
        buckets.emplace_back(i, count);
  }
  // By name (names are unique): the same contract as the trace summary.
  std::sort(plane.counters.begin(), plane.counters.end());
  std::sort(plane.gauges.begin(), plane.gauges.end());
  std::sort(plane.histograms.begin(), plane.histograms.end());
  return plane;
}

Json Telemetry::metrics_json() const {
  return encode(snapshot(), metric_plane_fields);
}

Json Telemetry::blackbox_json(const std::string& reason) const {
  BlackboxDump dump;
  dump.events = events();
  dump.reason = reason;
  dump.epoch_ms = wall_epoch_ms();
  dump.events_recorded = events_recorded();
  dump.torn = std::min<std::uint64_t>(dump.events_recorded, slots_.size()) -
              dump.events.size();
  dump.metrics = snapshot();
  return encode(dump, blackbox_fields);
}

bool Telemetry::dump_blackbox(const std::string& path,
                              const std::string& reason) const {
  std::ofstream os(path);
  if (!os.good()) return false;
  os << blackbox_json(reason).dump(2) << '\n';
  return os.good();
}

void Telemetry::start_sampler(const std::string& path,
                              std::uint64_t period_ms) {
  std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (sampler_.joinable()) return;
  std::ofstream probe(path, std::ios::trunc);
  CSD_CHECK_MSG(probe.good(),
                "cannot write metric series file '" << path << "'");
  probe.close();
  series_path_ = path;
  sampler_period_ms_ = period_ms == 0 ? 250 : period_ms;
  sampler_quit_ = false;
  sample_index_ = 0;
  sampler_ = std::thread([this] { sampler_loop(); });
}

void Telemetry::stop_sampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (!sampler_.joinable()) return;
    sampler_quit_ = true;
  }
  sampler_cv_.notify_all();
  sampler_.join();
  // One final sample so even sub-period runs leave a non-empty series.
  write_sample(sample_index_++);
}

void Telemetry::sampler_loop() {
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  while (!sampler_quit_) {
    if (sampler_cv_.wait_for(lock,
                             std::chrono::milliseconds(sampler_period_ms_),
                             [this] { return sampler_quit_; }))
      break;
    const std::uint64_t index = sample_index_++;
    lock.unlock();
    write_sample(index);
    lock.lock();
  }
}

void Telemetry::write_sample(std::uint64_t index) {
  MetricsSample sample = snapshot();
  sample.sample = index;
  sample.epoch_ms = wall_epoch_ms();
  sample.events_recorded = events_recorded();
  std::ofstream os(series_path_, std::ios::app);
  if (!os.good()) return;  // best-effort: sampling must never kill a run
  encode(sample, metrics_sample_fields).write(os, -1);
  os << '\n';
}

}  // namespace csd::obs
