// Trace-analysis toolchain: parse csd-trace JSONL back into structured
// instances, fit the rounds-vs-n growth exponent, and answer the congestion
// questions the paper's bounds are phrased in.
//
// The JSONL emitted by RunTrace::write_jsonl is the interchange format
// between the engines and every analysis surface (csd analyze and the
// Chrome trace exporter): one file may concatenate many
// instances (csd sweep --trace, bench --trace), each a header / rounds /
// edges / summary block stamped with meta parameters for demuxing. Each
// line is a TraceLine, written and read by trace_line_fields below.
//
// The headline check: Thm 1.1 gives C_{2k} detection in
// O(n^{1 - 1/(k(k-1))}) rounds, so on a log-log plot of per-repetition
// rounds against n the measured points must fall on a line of slope at
// most that exponent (0.5 for k = 2). fit_power_law is the least-squares
// slope of that plot; csd analyze and CI gate on it.
#pragma once

#include <array>
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
  std::uint32_t nodes = 0;
  std::uint64_t declared_rounds = 0;
  std::uint64_t segments = 1;
  bool per_node = false;
  bool per_edge = false;
  std::vector<std::uint64_t> segment_starts;

  // Round lines (per-node arrays are checked, not kept: the analyses here
  // are phase- and edge-centric).
  struct Round {
    std::uint64_t round = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::optional<std::string> phase;  // absent = unattributed
  };
  std::vector<Round> rounds;

  // Edge lines (per_edge traces only), ascending by (src, dst).
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

    bool operator==(const Phase&) const = default;
  };
  std::vector<Phase> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  /// Present when the run kept the message-size histogram.
  std::optional<std::vector<std::uint64_t>> size_histogram;

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
  /// "k=v k=v ..." over the meta, or "instance <index>" without any.
  std::string label(std::size_t index) const;
};

/// One csd-trace-v2 line: a header or summary line carries those members of
/// `instance`, a round line `round` and the node_* arrays (present exactly
/// when the header says per_node), an edge line `edge`.
struct TraceLine {
  enum class Type : std::uint8_t { Header, Round, Edge, Summary };
  Type type = Type::Header;
  TraceInstance instance;
  TraceInstance::Round round;
  std::optional<std::vector<std::uint64_t>> node_messages;
  std::optional<std::vector<std::uint64_t>> node_bits;
  TraceInstance::Edge edge;
};

inline constexpr std::array<const char*, 4> kTraceLineTypes = {
    "header", "round", "edge", "summary"};

inline constexpr auto trace_phase_fields = [](auto& io, auto& r) {
  io("name", r.name);
  io("rounds", r.rounds);
  io("messages", r.messages);
  io("bits", r.bits);
};

/// Each line kind's field list (obs/codec.hpp), after the `type` tag:
/// RunTrace::write_jsonl encodes lines with it, parse_trace_jsonl decodes.
inline constexpr auto trace_line_fields = [](auto& io, auto& r) {
  io("type", r.type, kTraceLineTypes);
  auto& t = r.instance;
  switch (r.type) {
    case TraceLine::Type::Header:
      io.tag("schema", "csd-trace-v2");
      io("nodes", t.nodes);
      io("rounds", t.declared_rounds);
      io("segments", t.segments);
      io("per_node", t.per_node);
      io("per_edge", t.per_edge);
      io.if_present("meta", t.meta);
      io.if_present("segment_starts", t.segment_starts);
      break;
    case TraceLine::Type::Round:
      io("round", r.round.round);
      io("messages", r.round.messages);
      io("bits", r.round.bits);
      io.if_present("phase", r.round.phase);
      io.if_present("node_messages", r.node_messages);
      io.if_present("node_bits", r.node_bits);
      break;
    case TraceLine::Type::Edge:
      io("src", r.edge.src);
      io("dst", r.edge.dst);
      io("messages", r.edge.messages);
      io("bits", r.edge.bits);
      break;
    case TraceLine::Type::Summary:
      io("total_messages", t.total_messages);
      io("total_bits", t.total_bits);
      io.if_present("size_histogram", t.size_histogram);
      io.if_present("phases", t.phases, trace_phase_fields);
      io.if_present("counters", t.counters);
      break;
  }
};

/// Parse a (possibly multi-instance) csd-trace-v2 JSONL stream, checking
/// what ties an instance's lines together: the header's `rounds` counts the
/// round lines, round r is numbered r, `segments` agrees with
/// `segment_starts`, a per-node row has `nodes` entries summing to its
/// line, the summary's totals, its `size_histogram` buckets and each of its
/// `phases` sum the round lines (labelled with that phase), and edge lines
/// are strictly ascending, below `nodes` and sum to the totals. Throws
/// CheckFailure naming the line and the key.
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
