#include "obs/round_trace.hpp"

#include <algorithm>
#include <ostream>

#include "obs/codec.hpp"
#include "obs/trace_analysis.hpp"
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

}  // namespace

RunTrace::RunTrace(std::uint32_t num_nodes, const TraceOptions& options)
    : enabled_(options.enabled),
      configured_(true),
      options_(options),
      num_nodes_(num_nodes) {}

void RunTrace::record(std::uint64_t round, std::uint32_t src,
                      std::uint32_t dst, std::uint64_t bits) {
  if (!enabled_) return;
  CSD_CHECK_MSG(src < num_nodes_, "trace record from unknown node");
  CSD_CHECK_MSG(dst < num_nodes_, "trace record to unknown node");
  ensure_round(round);
  RoundRecord& rec = rounds_[round];
  ++rec.messages;
  rec.bits += bits;
  if (options_.per_node) {
    ++rec.node_messages[src];
    rec.node_bits[src] += bits;
  }
  if (options_.per_edge) {
    EdgeRecord& edge = edges_[edge_key(src, dst)];
    ++edge.messages;
    edge.bits += bits;
  }
  if (options_.histogram) {
    const std::size_t bucket = size_bucket(bits);
    if (histogram_.size() <= bucket) histogram_.resize(bucket + 1, 0);
    ++histogram_[bucket];
  }
  ++total_messages_;
  total_bits_ += bits;
}

std::int32_t RunTrace::intern_phase(std::string_view name) {
  for (std::size_t i = 0; i < phase_names_.size(); ++i)
    if (phase_names_[i] == name) return static_cast<std::int32_t>(i);
  phase_names_.emplace_back(name);
  return static_cast<std::int32_t>(phase_names_.size() - 1);
}

void RunTrace::set_phase(std::uint64_t round, std::string_view name) {
  if (!enabled_) return;
  ensure_round(round);
  if (rounds_[round].phase >= 0) return;  // first declaration wins
  rounds_[round].phase = intern_phase(name);
}

void RunTrace::set_meta(std::string_view key, std::string_view value) {
  if (!enabled_) return;
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(std::string(key), std::string(value));
}

void RunTrace::set_counters(const MetricsRegistry& counters) {
  if (!enabled_) return;
  counters_ = counters;
}

void RunTrace::finish_run(std::uint64_t rounds) {
  if (!enabled_) return;
  if (rounds > rounds_.size()) ensure_round(rounds - 1);
}

void RunTrace::carry_phase(std::uint64_t from, std::uint64_t until) {
  if (!enabled_ || from >= rounds_.size()) return;
  const std::int32_t phase = rounds_[from].phase;
  if (phase < 0) return;
  for (std::uint64_t r = from + 1; r < until; ++r) {
    ensure_round(r);
    if (rounds_[r].phase < 0) rounds_[r].phase = phase;
  }
}

void RunTrace::ensure_round(std::uint64_t round) {
  if (round < rounds_.size()) return;
  const std::uint64_t old_size = rounds_.size();
  rounds_.resize(round + 1);
  for (std::uint64_t r = old_size; r <= round; ++r) {
    rounds_[r].round = r;
    if (options_.per_node) {
      rounds_[r].node_messages.assign(num_nodes_, 0);
      rounds_[r].node_bits.assign(num_nodes_, 0);
    }
  }
}

void RunTrace::append(const RunTrace& other) {
  if (!other.enabled_) return;
  if (!enabled_) {
    // A configured-but-disabled receiver stays disabled: adopting the donor
    // would discard the receiver's own configuration (the historical bug).
    // Only a default-constructed accumulator adopts the donor wholesale.
    if (configured_) return;
    *this = other;
    if (segment_starts_.empty() && !rounds_.empty())
      segment_starts_.push_back(0);
    return;
  }
  CSD_CHECK_MSG(num_nodes_ == other.num_nodes_,
                "appending traces of different networks");
  // Edge lines and histogram buckets must sum to the totals
  // (parse_trace_jsonl checks both).
  CSD_CHECK_MSG(options_.per_edge == other.options_.per_edge,
                "appending a trace with a different per_edge option");
  CSD_CHECK_MSG(options_.histogram == other.options_.histogram,
                "appending a trace with a different histogram option");
  if (segment_starts_.empty() && !rounds_.empty())
    segment_starts_.push_back(0);
  const std::uint64_t base = rounds_.size();
  segment_starts_.push_back(base);
  // No exact reserve here: it would defeat push_back's geometric growth
  // and make appending R repetitions quadratic in R.
  for (const RoundRecord& rec : other.rounds_) {
    rounds_.push_back(rec);
    rounds_.back().round = base + rec.round;
    // Re-intern by *name*: the donor's phase indices are private to it.
    if (rec.phase >= 0)
      rounds_.back().phase =
          intern_phase(other.phase_names_[static_cast<std::size_t>(rec.phase)]);
  }
  if (histogram_.size() < other.histogram_.size())
    histogram_.resize(other.histogram_.size(), 0);
  for (std::size_t b = 0; b < other.histogram_.size(); ++b)
    histogram_[b] += other.histogram_[b];
  for (const auto& [key, edge] : other.edges_) {
    EdgeRecord& mine = edges_[key];
    mine.messages += edge.messages;
    mine.bits += edge.bits;
  }
  counters_.merge(other.counters_);
  total_messages_ += other.total_messages_;
  total_bits_ += other.total_bits_;
}

std::uint64_t RunTrace::approx_bytes() const noexcept {
  if (!enabled_) return 0;
  std::uint64_t bytes = sizeof(*this);
  bytes += rounds_.capacity() * sizeof(RoundRecord);
  for (const RoundRecord& rec : rounds_)
    bytes += (rec.node_messages.capacity() + rec.node_bits.capacity()) *
             sizeof(std::uint64_t);
  bytes += histogram_.capacity() * sizeof(std::uint64_t);
  bytes += segment_starts_.capacity() * sizeof(std::uint64_t);
  // Hash-map internals vary by implementation; charge the payload per entry
  // plus one pointer of bucket overhead — a deterministic approximation.
  bytes += edges_.size() *
           (sizeof(std::uint64_t) + sizeof(EdgeRecord) + sizeof(void*));
  for (const std::string& name : phase_names_)
    bytes += sizeof(std::string) + name.size();
  for (const auto& [key, value] : meta_)
    bytes += 2 * sizeof(std::string) + key.size() + value.size();
  for (const auto& [name, value] : counters_.entries())
    bytes += sizeof(std::string) + name.size() + sizeof(value);
  return bytes;
}

void RunTrace::write_jsonl(std::ostream& os) const {
  TraceLine line;
  const auto write = [&] {
    encode(line, trace_line_fields).write(os, -1);
    os << '\n';
  };
  TraceInstance& instance = line.instance;
  instance.nodes = num_nodes_;
  instance.declared_rounds = rounds_.size();
  instance.segments = segments();
  instance.per_node = options_.per_node;
  instance.per_edge = options_.per_edge;
  instance.meta = meta_;
  instance.segment_starts = segment_starts_;
  write();

  line.type = TraceLine::Type::Round;
  for (const RoundRecord& rec : rounds_) {
    const auto phase = static_cast<std::size_t>(rec.phase);
    line.round = {rec.round, rec.messages, rec.bits,
                  rec.phase < 0 ? std::nullopt
                                : std::optional{phase_names_[phase]}};
    if (options_.per_node) {
      line.node_messages = rec.node_messages;
      line.node_bits = rec.node_bits;
    }
    write();
  }

  if (options_.per_edge) {
    std::vector<std::uint64_t> keys;
    keys.reserve(edges_.size());
    for (const auto& [key, edge] : edges_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    line.type = TraceLine::Type::Edge;
    for (const std::uint64_t key : keys) {
      const EdgeRecord& edge = edges_.at(key);
      line.edge = {static_cast<std::uint32_t>(key >> 32),
                   static_cast<std::uint32_t>(key), edge.messages, edge.bits};
      write();
    }
  }

  line.type = TraceLine::Type::Summary;
  instance.total_messages = total_messages_;
  instance.total_bits = total_bits_;
  if (options_.histogram) instance.size_histogram = histogram_;
  // Per-phase totals in first-declaration order; rounds without a declared
  // phase stay unattributed (visible as the difference from the run
  // totals).
  for (const std::string& name : phase_names_)
    instance.phases.push_back({name});
  for (const RoundRecord& rec : rounds_) {
    if (rec.phase < 0) continue;
    TraceInstance::Phase& phase =
        instance.phases[static_cast<std::size_t>(rec.phase)];
    ++phase.rounds;
    phase.messages += rec.messages;
    phase.bits += rec.bits;
  }
  // Non-zero counters only, by name: a clean run's summary is the same
  // bytes from either engine, whichever registered a counter first (the
  // sync engine never raises a transport counter; DESIGN.md §14).
  for (const auto& entry : counters_.entries())
    if (entry.second != 0) instance.counters.push_back(entry);
  std::sort(instance.counters.begin(), instance.counters.end());
  write();
}

}  // namespace csd::obs
