// Reader side of the csd-metrics-v2 JSONL series (obs/metrics_v2.hpp).
// Consumed by `csd postmortem` (tools/cli.cpp), which reads the samples and
// their span.
#pragma once

#include <iosfwd>
#include <vector>

#include "obs/metrics_v2.hpp"

namespace csd::obs {

/// A parsed series, in file order.
using MetricsSeries = std::vector<MetricsSample>;

/// Strict parse of a csd-metrics-v2 JSONL stream: each line decodes with
/// metrics_sample_fields, samples numbered 0, 1, 2, ... in file order.
/// Throws CheckFailure naming the line and the key.
MetricsSeries parse_metrics_series(std::istream& is);

}  // namespace csd::obs
