#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <tuple>

#include "obs/codec.hpp"
#include "support/check.hpp"

namespace csd::obs {

std::optional<std::string> TraceInstance::meta_value(
    std::string_view key) const {
  for (const auto& [k, v] : meta)
    if (k == key) return v;
  return std::nullopt;
}

std::optional<double> TraceInstance::meta_number(std::string_view key) const {
  const auto value = meta_value(key);
  if (!value.has_value()) return std::nullopt;
  double number = 0.0;
  const char* begin = value->data();
  const char* end = begin + value->size();
  const auto [ptr, ec] = std::from_chars(begin, end, number);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return number;
}

double TraceInstance::rounds_per_segment() const {
  const std::uint64_t segments =
      segment_count(segment_starts.size(), rounds.size());
  if (segments == 0) return 0.0;
  return static_cast<double>(rounds.size()) / static_cast<double>(segments);
}

std::string TraceInstance::fit_group() const {
  if (const auto group = meta_value("group"); group.has_value()) return *group;
  if (const auto program = meta_value("program"); program.has_value())
    return *program;
  return "";
}

std::string TraceInstance::label(std::size_t index) const {
  if (meta.empty()) return "instance " + std::to_string(index);
  std::string text;
  for (const auto& [key, value] : meta)
    text += (text.empty() ? "" : " ") + key + "=" + value;
  return text;
}

TraceCounts trace_counts(const TraceInstance& instance) {
  TraceCounts counts;
  counts.rounds = instance.rounds.size();
  counts.segments =
      segment_count(instance.segment_starts.size(), counts.rounds);
  for (const TraceInstance::Round& round : instance.rounds) {
    counts.total_messages += round.messages;
    counts.total_bits += round.bits;
    if (!round.phase.has_value()) continue;
    auto it = std::find_if(
        counts.phases.begin(), counts.phases.end(),
        [&](const TraceCounts::Phase& p) { return p.name == *round.phase; });
    if (it == counts.phases.end())
      it = counts.phases.insert(it, {*round.phase});
    ++it->rounds;
    it->messages += round.messages;
    it->bits += round.bits;
  }
  return counts;
}

void write_trace_jsonl(std::ostream& os, const TraceInstance& instance) {
  TraceLine line;
  line.header = instance;
  line.summary = instance;
  line.counts = trace_counts(instance);
  const auto write = [&](TraceLine::Type type) {
    line.type = type;
    encode(line, trace_line_fields).write(os, -1);
    os << '\n';
  };
  write(TraceLine::Type::Header);
  for (const TraceInstance::Round& round : instance.rounds) {
    line.round = round;
    write(TraceLine::Type::Round);
  }
  for (const TraceInstance::Edge& edge : instance.edges) {
    line.edge = edge;
    write(TraceLine::Type::Edge);
  }
  write(TraceLine::Type::Summary);
}

std::vector<TraceInstance> parse_trace_jsonl(std::istream& is) {
  using Type = TraceLine::Type;
  const auto sum = [](const std::vector<std::uint64_t>& values) {
    return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  };
  std::vector<TraceInstance> instances;
  TraceCounts stated;  // the open instance's header counts
  bool open = false;   // between a header and its summary
  std::string text;
  for (std::uint64_t line_no = 1; std::getline(is, text); ++line_no) {
    if (text.empty()) continue;
    try {
      TraceLine line =
          decode<TraceLine>(Json::parse(text), trace_line_fields);
      CSD_CHECK_MSG(open != (line.type == Type::Header),
                    (open ? "header before the previous instance's summary"
                          : "line outside an instance"));
      if (line.type == Type::Header) {
        stated = std::move(line.counts);
        const std::vector<std::uint64_t>& starts = line.header.segment_starts;
        CSD_CHECK_MSG(
            stated.segments == segment_count(starts.size(), stated.rounds) &&
                (starts.empty() ||
                 (starts.front() == 0 &&
                  std::is_sorted(starts.begin(), starts.end()) &&
                  starts.back() <= stated.rounds)),
            "key 'segments' (" << stated.segments
                               << ") disagrees with 'segment_starts'");
        static_cast<TraceHeader&>(instances.emplace_back()) =
            std::move(line.header);
        open = true;
        continue;
      }
      TraceInstance& t = instances.back();
      if (line.type == Type::Round) {
        const TraceInstance::Round& r = line.round;
        CSD_CHECK_MSG(t.edges.empty() && r.round == t.rounds.size(),
                      "key 'round' is " << r.round << ", expected "
                                        << t.rounds.size());
        const auto row_fits = [&](const std::vector<std::uint64_t>& row,
                                  std::uint64_t total) {
          return t.per_node ? row.size() == t.nodes && sum(row) == total
                            : row.empty();
        };
        CSD_CHECK_MSG(row_fits(r.node_messages, r.messages) &&
                          row_fits(r.node_bits, r.bits),
                      "keys 'node_messages'/'node_bits' must appear exactly "
                      "when the header says per_node, with "
                          << t.nodes << " entries summing to the line's "
                          << "'messages' and 'bits'");
        t.rounds.push_back(std::move(line.round));
        continue;
      }
      CSD_CHECK_MSG(t.rounds.size() == stated.rounds,
                    "the header's 'rounds' is " << stated.rounds
                                                << " but the instance has "
                                                << t.rounds.size()
                                                << " round lines");
      if (line.type == Type::Edge) {
        const TraceInstance::Edge& e = line.edge;
        CSD_CHECK_MSG(t.per_edge && e.src < t.nodes && e.dst < t.nodes &&
                          (t.edges.empty() ||
                           std::tie(t.edges.back().src, t.edges.back().dst) <
                               std::tie(e.src, e.dst)),
                      "edge keys 'src'/'dst' must be below 'nodes' and "
                      "strictly ascending");
        t.edges.push_back(e);
        continue;
      }
      static_cast<TraceSummary&>(t) = std::move(line.summary);
      const TraceCounts derived = trace_counts(t);
      const TraceCounts& summary = line.counts;
      CSD_CHECK_MSG(summary.total_messages == derived.total_messages &&
                        summary.total_bits == derived.total_bits,
                    "keys 'total_messages'/'total_bits' must sum the round "
                    "lines: " << derived.total_messages << " messages, "
                              << derived.total_bits << " bits");
      CSD_CHECK_MSG(summary.phases == derived.phases,
                    "key 'phases' must list each round line 'phase' once, "
                    "in the order the rounds first carry it, with the sums "
                    "of its lines' rounds, messages and bits");
      std::uint64_t edge_messages = 0, edge_bits = 0;
      for (const TraceInstance::Edge& e : t.edges) {
        edge_messages += e.messages;
        edge_bits += e.bits;
      }
      CSD_CHECK_MSG(!t.per_edge || (edge_messages == derived.total_messages &&
                                    edge_bits == derived.total_bits),
                    "keys 'total_messages'/'total_bits' must sum the edge "
                    "lines: " << edge_messages << " messages, " << edge_bits
                              << " bits");
      const auto& buckets = t.size_histogram;
      CSD_CHECK_MSG(!buckets || sum(*buckets) == derived.total_messages,
                    "key 'size_histogram' must sum to the round lines' "
                        << derived.total_messages << " messages");
      // Names are distinct (Json::parse rejects a duplicate key).
      const auto& counters = t.counters;
      const auto zero = [](const auto& c) { return c.second == 0; };
      CSD_CHECK_MSG(std::is_sorted(counters.begin(), counters.end()) &&
                        std::none_of(counters.begin(), counters.end(), zero),
                    "key 'counters' must hold non-zero values under "
                    "strictly ascending names");
      open = false;
    } catch (const CheckFailure& failure) {
      throw CheckFailure("trace line " + std::to_string(line_no) + ": " +
                         failure.what());
    }
  }
  CSD_CHECK_MSG(!open, "trace ends mid-instance (no summary line)");
  return instances;
}

std::optional<PowerLawFit> fit_power_law(
    const std::vector<std::pair<double, double>>& xy) {
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  std::size_t count = 0;
  double first_x = 0.0;
  bool distinct_x = false;
  for (const auto& [x, y] : xy) {
    if (!(x > 0.0) || !(y > 0.0)) continue;
    const double lx = std::log(x);
    const double ly = std::log(y);
    if (count == 0)
      first_x = lx;
    else if (lx != first_x)
      distinct_x = true;
    sum_x += lx;
    sum_y += ly;
    sum_xx += lx * lx;
    sum_xy += lx * ly;
    ++count;
  }
  if (count < 2 || !distinct_x) return std::nullopt;
  const double denom =
      static_cast<double>(count) * sum_xx - sum_x * sum_x;
  PowerLawFit fit;
  fit.exponent =
      (static_cast<double>(count) * sum_xy - sum_x * sum_y) / denom;
  fit.log_coeff = (sum_y - fit.exponent * sum_x) / static_cast<double>(count);
  fit.points = count;
  return fit;
}

std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>
rounds_vs_n_points(const std::vector<TraceInstance>& instances) {
  std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>
      groups;
  for (const TraceInstance& instance : instances) {
    const auto n = instance.meta_number("n");
    if (!n.has_value()) continue;
    const double rounds = instance.rounds_per_segment();
    if (!(rounds > 0.0)) continue;
    const std::string group = instance.fit_group();
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == group; });
    if (it == groups.end()) {
      groups.emplace_back(group,
                          std::vector<std::pair<double, double>>{});
      it = groups.end() - 1;
    }
    it->second.emplace_back(*n, rounds);
  }
  return groups;
}

std::uint64_t cut_traffic_bits(const TraceInstance& instance,
                               std::uint64_t boundary) {
  std::uint64_t bits = 0;
  for (const TraceInstance::Edge& edge : instance.edges) {
    const bool src_left = edge.src < boundary;
    const bool dst_left = edge.dst < boundary;
    if (src_left != dst_left) bits += edge.bits;
  }
  return bits;
}

std::vector<TraceInstance::Edge> top_edges_by_bits(
    const TraceInstance& instance, std::size_t k) {
  std::vector<TraceInstance::Edge> edges = instance.edges;
  std::sort(edges.begin(), edges.end(),
            [](const TraceInstance::Edge& a, const TraceInstance::Edge& b) {
              if (a.bits != b.bits) return a.bits > b.bits;
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  if (edges.size() > k) edges.resize(k);
  return edges;
}

}  // namespace csd::obs
