// Trace-analysis toolchain: the csd-trace-v2 record (TraceInstance, which
// RunTrace records into), its JSONL writer and strict reader, the rounds-vs-n
// growth fit, and the congestion questions the paper's bounds are phrased in.
//
// The JSONL is the interchange format between the engines and every
// analysis surface (csd analyze and the Chrome trace exporter): one file may
// concatenate many instances (csd sweep --trace, bench --trace), each a
// header / rounds / edges / summary block stamped with meta parameters for
// demuxing. Each line is a TraceLine, written and read by trace_line_fields.
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

/// The data of an instance's header line.
struct TraceHeader {
  std::vector<std::pair<std::string, std::string>> meta;
  std::uint32_t nodes = 0;
  bool per_node = false;
  bool per_edge = false;
  /// Index of the round where each appended run segment starts (empty for
  /// a single run).
  std::vector<std::uint64_t> segment_starts;

  bool operator==(const TraceHeader&) const = default;
};

/// The data of an instance's summary line.
struct TraceSummary {
  /// Engine counters: non-zero values, names strictly ascending.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Present when the run kept the message-size histogram: bucket 0 counts
  /// empty messages, bucket b >= 1 sizes in [2^(b-1), 2^b) bits.
  std::optional<std::vector<std::uint64_t>> size_histogram;

  bool operator==(const TraceSummary&) const = default;
};

/// One csd-trace-v2 instance, header through summary; parse_trace_jsonl of
/// write_trace_jsonl(t) equals t. What lines state that it derives is no
/// member: trace_counts computes it.
struct TraceInstance : TraceHeader, TraceSummary {
  /// Round line r; node rows hold `nodes` entries iff per_node.
  struct Round {
    std::uint64_t round = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::optional<std::string> phase;  // absent = unattributed
    std::vector<std::uint64_t> node_messages;
    std::vector<std::uint64_t> node_bits;

    bool operator==(const Round&) const = default;
  };
  std::vector<Round> rounds;

  /// Edge lines (per_edge traces only), strictly ascending by (src, dst).
  struct Edge {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;

    bool operator==(const Edge&) const = default;
  };
  std::vector<Edge> edges;

  bool operator==(const TraceInstance&) const = default;

  /// Meta value for `key`, if stamped.
  std::optional<std::string> meta_value(std::string_view key) const;
  /// Meta value parsed as a number (the sink stamps values as strings).
  std::optional<double> meta_number(std::string_view key) const;
  /// Rounds per repetition: rounds / segments — the y of the growth fit
  /// (an amplified run concatenates one segment per repetition).
  double rounds_per_segment() const;
  /// Group label for fitting: meta "group", else meta "program", else "".
  std::string fit_group() const;
  /// "k=v k=v ..." over the meta, or "instance <index>" without any.
  std::string label(std::size_t index) const;
};

/// Run segments of `rounds` rounds cut at `starts` segment starts: one per
/// start, else one when there are rounds at all.
constexpr std::uint64_t segment_count(std::size_t starts,
                                      std::uint64_t rounds) {
  return starts != 0 ? starts : rounds != 0;
}

/// What an instance's lines state that its record derives: the header's
/// `rounds` and `segments`, the summary's totals and per-phase totals. The
/// writer writes trace_counts(t); the reader checks the lines against it.
struct TraceCounts {
  struct Phase {
    std::string name;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;

    bool operator==(const Phase&) const = default;
  };

  std::uint64_t rounds = 0;
  std::uint64_t segments = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  /// One entry per round-line `phase` name, in the order the rounds first
  /// carry it (the order programs declare phases in: a name derives from
  /// the round number, and the first declaration of a round wins).
  std::vector<Phase> phases;
};

TraceCounts trace_counts(const TraceInstance& instance);

/// One csd-trace-v2 line: `header` or `summary` with its `counts`, `round`
/// or `edge`, as `type` says.
struct TraceLine {
  enum class Type : std::uint8_t { Header, Round, Edge, Summary };
  Type type = Type::Header;
  TraceHeader header;
  TraceInstance::Round round;
  TraceInstance::Edge edge;
  TraceSummary summary;
  TraceCounts counts;
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
/// write_trace_jsonl encodes lines with it, parse_trace_jsonl decodes.
inline constexpr auto trace_line_fields = [](auto& io, auto& r) {
  io("type", r.type, kTraceLineTypes);
  auto& c = r.counts;
  switch (r.type) {
    case TraceLine::Type::Header:
      io.tag("schema", "csd-trace-v2");
      io("nodes", r.header.nodes);
      io("rounds", c.rounds);
      io("segments", c.segments);
      io("per_node", r.header.per_node);
      io("per_edge", r.header.per_edge);
      io.if_present("meta", r.header.meta);
      io.if_present("segment_starts", r.header.segment_starts);
      break;
    case TraceLine::Type::Round:
      io("round", r.round.round);
      io("messages", r.round.messages);
      io("bits", r.round.bits);
      io.if_present("phase", r.round.phase);
      io.if_present("node_messages", r.round.node_messages);
      io.if_present("node_bits", r.round.node_bits);
      break;
    case TraceLine::Type::Edge:
      io("src", r.edge.src);
      io("dst", r.edge.dst);
      io("messages", r.edge.messages);
      io("bits", r.edge.bits);
      break;
    case TraceLine::Type::Summary:
      io("total_messages", c.total_messages);
      io("total_bits", c.total_bits);
      io.if_present("size_histogram", r.summary.size_histogram);
      io.if_present("phases", c.phases, trace_phase_fields);
      io.if_present("counters", r.summary.counters);
      break;
  }
};

/// Writes `instance` as csd-trace-v2 JSONL: a header line, one line per
/// round, one per edge, a summary line; equal records write equal bytes.
void write_trace_jsonl(std::ostream& os, const TraceInstance& instance);

/// Parse a (possibly multi-instance) csd-trace-v2 JSONL stream, accepting
/// only what write_trace_jsonl can write: the header's `rounds` and
/// `segments` and the summary's totals and `phases` are trace_counts of
/// the instance read, round r is numbered r, `segment_starts` ascend from
/// 0, a per-node row has `nodes` entries summing to its line, the
/// `size_histogram` buckets sum to the total messages, edge lines are
/// strictly ascending, below `nodes` and sum to the totals, and the
/// counters are non-zero under strictly ascending names. Throws
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
