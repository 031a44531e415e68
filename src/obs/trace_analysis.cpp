#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
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
  if (segments == 0) return 0.0;
  return static_cast<double>(declared_rounds) / static_cast<double>(segments);
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

std::vector<TraceInstance> parse_trace_jsonl(std::istream& is) {
  using Type = TraceLine::Type;
  const auto sum = [](const std::vector<std::uint64_t>& values) {
    return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  };
  std::vector<TraceInstance> instances;
  bool open = false;  // between a header and its summary
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
        TraceInstance& header = line.instance;
        const std::vector<std::uint64_t>& starts = header.segment_starts;
        CSD_CHECK_MSG(
            starts.empty() ? header.segments == (header.declared_rounds > 0)
                           : header.segments == starts.size() &&
                                 starts.front() == 0 &&
                                 std::is_sorted(starts.begin(), starts.end()) &&
                                 starts.back() <= header.declared_rounds,
            "key 'segments' (" << header.segments
                               << ") disagrees with 'segment_starts'");
        instances.push_back(std::move(header));
        open = true;
        continue;
      }
      TraceInstance& t = instances.back();
      if (line.type == Type::Round) {
        CSD_CHECK_MSG(t.edges.empty() && line.round.round == t.rounds.size(),
                      "key 'round' is " << line.round.round << ", expected "
                                        << t.rounds.size());
        CSD_CHECK_MSG(line.node_messages.has_value() == t.per_node &&
                          line.node_bits.has_value() == t.per_node,
                      "keys 'node_messages'/'node_bits' must appear exactly "
                      "when the header says per_node");
        CSD_CHECK_MSG(!t.per_node ||
                          (line.node_messages->size() == t.nodes &&
                           line.node_bits->size() == t.nodes &&
                           sum(*line.node_messages) == line.round.messages &&
                           sum(*line.node_bits) == line.round.bits),
                      "keys 'node_messages'/'node_bits' must have "
                          << t.nodes << " entries, summing to the line's "
                          << "'messages' and 'bits'");
        t.total_messages += line.round.messages;
        t.total_bits += line.round.bits;
        if (const auto& label = line.round.phase; label.has_value()) {
          auto it = std::find_if(
              t.phases.begin(), t.phases.end(),
              [&](const auto& p) { return p.name == *label; });
          if (it == t.phases.end()) it = t.phases.insert(it, {*label});
          ++it->rounds;
          it->messages += line.round.messages;
          it->bits += line.round.bits;
        }
        t.rounds.push_back(std::move(line.round));
        continue;
      }
      CSD_CHECK_MSG(t.rounds.size() == t.declared_rounds,
                    "the header's 'rounds' is " << t.declared_rounds
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
      CSD_CHECK_MSG(line.instance.total_messages == t.total_messages &&
                        line.instance.total_bits == t.total_bits,
                    "keys 'total_messages'/'total_bits' must sum the round "
                    "lines: " << t.total_messages << " messages, "
                              << t.total_bits << " bits");
      // t.phases holds the round lines' sums per label.
      const auto by_name = [](std::vector<TraceInstance::Phase> phases) {
        std::sort(phases.begin(), phases.end(),
                  [](const auto& a, const auto& b) { return a.name < b.name; });
        return phases;
      };
      CSD_CHECK_MSG(by_name(line.instance.phases) == by_name(t.phases),
                    "key 'phases' must list each round line 'phase' once, "
                    "with the sums of its lines' rounds, messages and bits");
      std::uint64_t edge_messages = 0, edge_bits = 0;
      for (const TraceInstance::Edge& e : t.edges) {
        edge_messages += e.messages;
        edge_bits += e.bits;
      }
      CSD_CHECK_MSG(!t.per_edge || (edge_messages == t.total_messages &&
                                    edge_bits == t.total_bits),
                    "keys 'total_messages'/'total_bits' must sum the edge "
                    "lines: " << edge_messages << " messages, " << edge_bits
                              << " bits");
      const auto& buckets = line.instance.size_histogram;
      CSD_CHECK_MSG(!buckets || sum(*buckets) == t.total_messages,
                    "key 'size_histogram' must sum to the round lines' "
                        << t.total_messages << " messages");
      t.size_histogram = std::move(line.instance.size_histogram);
      t.phases = std::move(line.instance.phases);
      t.counters = std::move(line.instance.counters);
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
