#include "obs/round_trace.hpp"

#include <algorithm>
#include <ostream>

#include "support/bits.hpp"
#include "support/check.hpp"

namespace csd::obs {

namespace {

/// Bucket 0 holds empty messages; bucket b >= 1 holds sizes in
/// [2^(b-1), 2^b). 64-bit sizes need at most 65 buckets.
std::size_t size_bucket(std::uint64_t bits) {
  if (bits == 0) return 0;
  return static_cast<std::size_t>(bit_width64(bits));
}

std::uint64_t edge_key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// Sorts `edges` by (src, dst), summing the entries of one edge into one.
void settle(std::vector<TraceInstance::Edge>& edges) {
  const auto key = [](const TraceInstance::Edge& e) {
    return edge_key(e.src, e.dst);
  };
  std::sort(edges.begin(), edges.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::size_t kept = 0;
  for (const TraceInstance::Edge& edge : edges) {
    if (kept != 0 && key(edges[kept - 1]) == key(edge)) {
      edges[kept - 1].messages += edge.messages;
      edges[kept - 1].bits += edge.bits;
    } else {
      edges[kept++] = edge;
    }
  }
  edges.resize(kept);
}

}  // namespace

RunTrace::RunTrace(std::uint32_t num_nodes, const TraceOptions& options)
    : options_(options) {
  instance_.nodes = num_nodes;
  instance_.per_node = options.per_node;
  instance_.per_edge = options.per_edge;
  if (options.histogram) instance_.size_histogram.emplace();
}

void RunTrace::record(std::uint64_t round, std::uint32_t src,
                      std::uint32_t dst, std::uint64_t bits) {
  if (!enabled()) return;
  CSD_CHECK_MSG(src < instance_.nodes, "trace record from unknown node");
  CSD_CHECK_MSG(dst < instance_.nodes, "trace record to unknown node");
  ensure_round(round);
  RoundRecord& rec = instance_.rounds[round];
  ++rec.messages;
  rec.bits += bits;
  if (instance_.per_node) {
    ++rec.node_messages[src];
    rec.node_bits[src] += bits;
  }
  if (instance_.per_edge) {
    TraceInstance::Edge& edge =
        run_edges_.try_emplace(edge_key(src, dst), src, dst).first->second;
    ++edge.messages;
    edge.bits += bits;
  }
  if (auto& histogram = instance_.size_histogram) {
    const std::size_t bucket = size_bucket(bits);
    if (histogram->size() <= bucket) histogram->resize(bucket + 1, 0);
    ++(*histogram)[bucket];
  }
}

void RunTrace::set_phase(std::uint64_t round, std::string_view name) {
  if (!enabled()) return;
  ensure_round(round);
  auto& phase = instance_.rounds[round].phase;
  if (!phase) phase.emplace(name);  // first declaration wins
}

void RunTrace::set_meta(std::string_view key, std::string_view value) {
  if (!enabled()) return;
  for (auto& [k, v] : instance_.meta) {
    if (k == key) {
      v = value;
      return;
    }
  }
  instance_.meta.emplace_back(std::string(key), std::string(value));
}

void RunTrace::add_counter(std::string_view name, std::uint64_t value) {
  if (!enabled() || value == 0) return;
  auto& block = instance_.counters;
  const auto it = std::lower_bound(
      block.begin(), block.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  if (it != block.end() && it->first == name)
    it->second += value;
  else
    block.emplace(it, std::string(name), value);
}

void RunTrace::finish_run(std::uint64_t rounds) {
  if (!enabled()) return;
  if (rounds > instance_.rounds.size()) ensure_round(rounds - 1);
  for (const auto& entry : run_edges_) instance_.edges.push_back(entry.second);
  run_edges_.clear();
  settle(instance_.edges);
}

void RunTrace::carry_phase(std::uint64_t from, std::uint64_t until) {
  if (!enabled() || from >= instance_.rounds.size()) return;
  if (!instance_.rounds[from].phase) return;
  for (std::uint64_t r = from + 1; r < until; ++r) {
    ensure_round(r);
    auto& phase = instance_.rounds[r].phase;
    if (!phase) phase = instance_.rounds[from].phase;
  }
}

void RunTrace::ensure_round(std::uint64_t round) {
  auto& rounds = instance_.rounds;
  if (round < rounds.size()) return;
  const std::uint64_t old_size = rounds.size();
  rounds.resize(round + 1);
  for (std::uint64_t r = old_size; r <= round; ++r) {
    rounds[r].round = r;
    if (instance_.per_node) {
      rounds[r].node_messages.assign(instance_.nodes, 0);
      rounds[r].node_bits.assign(instance_.nodes, 0);
    }
  }
}

void RunTrace::append(const RunTrace& other) {
  if (!other.enabled()) return;
  if (!enabled()) {
    // A configured-but-disabled receiver stays disabled: adopting the donor
    // would discard the receiver's own configuration (the historical bug).
    // Only a default-constructed accumulator adopts the donor wholesale.
    if (options_) return;
    *this = other;
    if (instance_.segment_starts.empty() && !instance_.rounds.empty())
      instance_.segment_starts.push_back(0);
    return;
  }
  const TraceInstance& donor = other.instance_;
  CSD_CHECK_MSG(other.run_edges_.empty(),
                "appending a trace whose run has not finished");
  CSD_CHECK_MSG(instance_.nodes == donor.nodes,
                "appending traces of different networks");
  // Node rows, edge lines and histogram buckets must sum to the totals
  // (parse_trace_jsonl checks all three).
  CSD_CHECK_MSG(instance_.per_node == donor.per_node &&
                    instance_.per_edge == donor.per_edge &&
                    instance_.size_histogram.has_value() ==
                        donor.size_histogram.has_value(),
                "appending a trace with another per_node, per_edge or "
                "histogram option");
  auto& rounds = instance_.rounds;
  if (instance_.segment_starts.empty() && !rounds.empty())
    instance_.segment_starts.push_back(0);
  const std::uint64_t base = rounds.size();
  instance_.segment_starts.push_back(base);
  // No exact reserve here: it would defeat push_back's geometric growth
  // and make appending R repetitions quadratic in R.
  for (const RoundRecord& rec : donor.rounds) {
    rounds.push_back(rec);
    rounds.back().round = base + rec.round;
  }
  if (auto& histogram = instance_.size_histogram) {
    const std::vector<std::uint64_t>& more = *donor.size_histogram;
    if (histogram->size() < more.size()) histogram->resize(more.size(), 0);
    for (std::size_t b = 0; b < more.size(); ++b) (*histogram)[b] += more[b];
  }
  instance_.edges.insert(instance_.edges.end(), donor.edges.begin(),
                         donor.edges.end());
  settle(instance_.edges);
  for (const auto& [name, value] : donor.counters) add_counter(name, value);
}

std::uint64_t RunTrace::approx_bytes() const noexcept {
  if (!enabled()) return 0;
  std::uint64_t bytes = sizeof(*this);
  bytes += instance_.rounds.capacity() * sizeof(RoundRecord);
  for (const RoundRecord& rec : instance_.rounds)
    bytes += (rec.node_messages.capacity() + rec.node_bits.capacity()) *
             sizeof(std::uint64_t);
  bytes += instance_.edges.capacity() * sizeof(TraceInstance::Edge);
  // Hash-map internals vary by implementation; charge the payload per entry
  // plus one pointer of bucket overhead — a deterministic approximation.
  bytes += run_edges_.size() * (sizeof(std::uint64_t) +
                                sizeof(TraceInstance::Edge) + sizeof(void*));
  return bytes;
}

void RunTrace::write_jsonl(std::ostream& os) const {
  CSD_CHECK_MSG(run_edges_.empty(),
                "writing a trace whose run has not finished");
  write_trace_jsonl(os, instance_);
}

}  // namespace csd::obs
