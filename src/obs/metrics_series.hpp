// Reader side of the csd-metrics-v2 JSONL series (obs/metrics_v2.hpp):
// a strict parser. Consumed by `csd postmortem` (tools/cli.cpp), which
// reads the samples and their span.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace csd::obs {

/// One sampler tick: the metric plane as it looked at `epoch_ms`.
struct MetricsSample {
  std::uint64_t sample = 0;
  std::uint64_t epoch_ms = 0;
  std::uint64_t events_recorded = 0;
  /// Sorted-name order as emitted.
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

/// A parsed series, in file order (sample indices ascending).
struct MetricsSeries {
  std::vector<MetricsSample> samples;

  bool empty() const noexcept { return samples.empty(); }
  const MetricsSample& front() const { return samples.front(); }
  const MetricsSample& back() const { return samples.back(); }

  /// Wall-clock span covered by the series, in milliseconds.
  std::uint64_t span_ms() const;
};

/// Strict parse of a csd-metrics-v2 JSONL stream. Throws CheckFailure on
/// malformed lines or a wrong schema tag; an empty stream parses to an
/// empty series.
MetricsSeries parse_metrics_series(std::istream& is);

}  // namespace csd::obs
