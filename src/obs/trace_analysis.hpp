// Trace-analysis toolchain: parse csd-trace JSONL back into structured
// instances, fit the rounds-vs-n growth exponent, and answer the congestion
// questions the paper's bounds are phrased in.
//
// The JSONL emitted by RunTrace::write_jsonl is the interchange format
// between the engines and every analysis surface (csd analyze and the
// Chrome trace exporter): one file may concatenate many
// instances (csd sweep --trace, bench --trace), each a header / rounds /
// edges / summary block stamped with meta parameters for demuxing.
//
// The headline check: Thm 1.1 gives C_{2k} detection in
// O(n^{1 - 1/(k(k-1))}) rounds, so on a log-log plot of per-repetition
// rounds against n the measured points must fall on a line of slope at
// most that exponent (0.5 for k = 2). fit_power_law is the least-squares
// slope of that plot; csd analyze and CI gate on it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csd::obs {

/// One parsed trace instance (header through summary).
struct TraceInstance {
  // Header.
  std::vector<std::pair<std::string, std::string>> meta;
  std::uint64_t nodes = 0;
  std::uint64_t declared_rounds = 0;
  std::uint64_t segments = 1;
  bool per_node = false;
  bool per_edge = false;
  std::vector<std::uint64_t> segment_starts;

  // Round lines (node_* arrays are not retained; the analyses here are
  // phase- and edge-centric).
  struct Round {
    std::uint64_t round = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::string phase;  // empty = unattributed
  };
  std::vector<Round> rounds;

  // Edge lines (per_edge traces only).
  struct Edge {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
  };
  std::vector<Edge> edges;

  // Summary.
  struct Phase {
    std::string name;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
  };
  std::vector<Phase> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;

  /// Meta value for `key`, if stamped.
  std::optional<std::string> meta_value(std::string_view key) const;
  /// Meta value parsed as a number (the sink stamps values as strings).
  std::optional<double> meta_number(std::string_view key) const;
  /// Rounds per repetition: declared rounds / segments — the y of the
  /// growth fit (an amplified run concatenates one segment per
  /// repetition).
  double rounds_per_segment() const;
  /// Group label for fitting: meta "group", else meta "program", else "".
  std::string fit_group() const;
};

/// Parse a (possibly multi-instance) csd-trace JSONL stream. Accepts both
/// schema v1 and v2. Throws CheckFailure on malformed input.
std::vector<TraceInstance> parse_trace_jsonl(std::istream& is);

/// Least-squares fit of log(y) = exponent * log(x) + log_coeff over the
/// given (x, y) points; x and y must be positive. Returns nullopt with
/// fewer than two distinct x values (a slope needs two abscissae).
struct PowerLawFit {
  double exponent = 0.0;
  double log_coeff = 0.0;  // natural log of the leading constant
  std::size_t points = 0;
};
std::optional<PowerLawFit> fit_power_law(
    const std::vector<std::pair<double, double>>& xy);

/// (n, rounds-per-segment) points of the instances whose meta carries a
/// numeric "n", grouped by TraceInstance::fit_group().
std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>
rounds_vs_n_points(const std::vector<TraceInstance>& instances);

/// Total bits crossing the cut {v < boundary} | {v >= boundary} in either
/// direction (per_edge traces; 0 otherwise). For the lower-bound graphs
/// G_{X,Y} with X on one side of the index split this is exactly the
/// communication the §3.4 argument bounds from below.
std::uint64_t cut_traffic_bits(const TraceInstance& instance,
                               std::uint64_t boundary);

/// The k directed edges carrying the most bits, ties broken by (src, dst).
std::vector<TraceInstance::Edge> top_edges_by_bits(
    const TraceInstance& instance, std::size_t k);

}  // namespace csd::obs
