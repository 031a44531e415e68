#include "congest/faults.hpp"

#include <iterator>
#include <sstream>

#include "support/check.hpp"

namespace csd::congest {

const char* to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::Bandwidth:
      return "bandwidth";
    case ViolationKind::DuplicateSend:
      return "duplicate-send";
    case ViolationKind::BroadcastMismatch:
      return "broadcast-mismatch";
    case ViolationKind::ProgramFault:
      return "program-fault";
  }
  return "?";
}

void FaultReport::merge(FaultReport other) {
  frames_dropped += other.frames_dropped;
  frames_corrupted += other.frames_corrupted;
  retransmissions += other.retransmissions;
  checksum_rejects += other.checksum_rejects;
  duplicate_packets += other.duplicate_packets;
  duplicate_acks += other.duplicate_acks;
  transport_failures += other.transport_failures;
  replayed_pulses += other.replayed_pulses;
  watchdog_stalls += other.watchdog_stalls;
  crashed_nodes.insert(crashed_nodes.end(), other.crashed_nodes.begin(),
                       other.crashed_nodes.end());
  recovered_nodes.insert(recovered_nodes.end(), other.recovered_nodes.begin(),
                         other.recovered_nodes.end());
  stalled_nodes.insert(stalled_nodes.end(), other.stalled_nodes.begin(),
                       other.stalled_nodes.end());
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
  detected_by_survivors = detected_by_survivors || other.detected_by_survivors;
}

std::string summarize(const FaultReport& report) {
  std::ostringstream os;
  os << "frames dropped:     " << report.frames_dropped << '\n'
     << "frames corrupted:   " << report.frames_corrupted << '\n'
     << "retransmissions:    " << report.retransmissions << '\n'
     << "checksum rejects:   " << report.checksum_rejects << '\n'
     << "duplicate packets:  " << report.duplicate_packets << '\n'
     << "duplicate acks:     " << report.duplicate_acks << '\n'
     << "transport failures: " << report.transport_failures << '\n';
  os << "crashed nodes:     ";
  if (report.crashed_nodes.empty()) os << " none";
  for (const auto v : report.crashed_nodes) os << ' ' << v;
  os << '\n' << "recovered nodes:   ";
  if (report.recovered_nodes.empty()) os << " none";
  for (const auto v : report.recovered_nodes) os << ' ' << v;
  if (report.replayed_pulses > 0)
    os << '\n' << "replayed pulses:    " << report.replayed_pulses;
  if (report.watchdog_stalls > 0)
    os << '\n' << "watchdog stalls:    " << report.watchdog_stalls;
  os << '\n' << "stalled nodes:     ";
  if (report.stalled_nodes.empty()) os << " none";
  for (const auto v : report.stalled_nodes) os << ' ' << v;
  os << '\n' << "violations:         " << report.violations.size();
  for (const auto& violation : report.violations)
    os << "\n  [" << to_string(violation.kind) << "] node " << violation.node
       << " round " << violation.round << ": " << violation.detail;
  os << '\n'
     << "survivors detect:   "
     << (report.detected_by_survivors ? "REJECT" : "accept") << '\n';
  return os.str();
}

bool FaultReport::clean() const noexcept {
  bool zero = true;
  fault_rows(*this, [&](auto, std::uint64_t value) { zero &= value == 0; });
  return zero;
}

obs::MetricsRegistry fault_counters(const FaultReport& report) {
  obs::MetricsRegistry counters;
  fault_rows(report, [&](std::string_view name, std::uint64_t value) {
    counters.add(name, value);
  });
  return counters;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                             const Graph& topology)
    : plan_(plan) {
  CSD_CHECK_MSG(plan_.drop >= 0.0 && plan_.drop <= 1.0,
                "drop probability " << plan_.drop << " outside [0, 1]");
  CSD_CHECK_MSG(plan_.corrupt >= 0.0 && plan_.corrupt <= 1.0,
                "corrupt probability " << plan_.corrupt << " outside [0, 1]");
  const Vertex n = topology.num_vertices();
  link_rng_.resize(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto deg = topology.degree(v);
    link_rng_[v].reserve(deg);
    for (std::uint32_t p = 0; p < deg; ++p)
      link_rng_[v].emplace_back(derive_seed(
          derive_seed(seed, 0xfa017ULL), (static_cast<std::uint64_t>(v) << 20) | p));
  }
  crash_round_.resize(n);
  for (const auto& crash : plan_.crashes) {
    CSD_CHECK_MSG(crash.node < n,
                  "crash event names node " << crash.node << " but the "
                  "topology has " << n << " nodes");
    auto& slot = crash_round_[crash.node];
    if (!slot.has_value() || crash.round < *slot) slot = crash.round;
  }
}

FaultInjector::Fate FaultInjector::next_fate(std::uint32_t src,
                                             std::uint32_t port,
                                             std::size_t corruptible_bits) {
  CSD_DCHECK(src < link_rng_.size());
  CSD_DCHECK(port < link_rng_[src].size());
  Rng& rng = link_rng_[src][port];
  // Always make the same three draws so the stream position after the i-th
  // transmission is independent of earlier fates.
  const double drop_draw = rng.uniform();
  const double corrupt_draw = rng.uniform();
  const std::uint64_t bit_draw = rng();
  Fate fate;
  fate.dropped = drop_draw < plan_.drop;
  if (!fate.dropped && corruptible_bits > 0 && corrupt_draw < plan_.corrupt) {
    fate.corrupted = true;
    fate.corrupt_bit = static_cast<std::size_t>(bit_draw % corruptible_bits);
  }
  return fate;
}

std::vector<std::vector<std::array<std::uint64_t, 4>>>
FaultInjector::save_streams() const {
  std::vector<std::vector<std::array<std::uint64_t, 4>>> streams;
  streams.reserve(link_rng_.size());
  for (const auto& per_port : link_rng_) {
    auto& out = streams.emplace_back();
    out.reserve(per_port.size());
    for (const auto& rng : per_port) out.push_back(rng.state());
  }
  return streams;
}

void FaultInjector::restore_streams(
    const std::vector<std::vector<std::array<std::uint64_t, 4>>>& streams) {
  CSD_CHECK_MSG(streams.size() == link_rng_.size(),
                "snapshot fault streams cover " << streams.size()
                << " nodes, topology has " << link_rng_.size());
  for (std::size_t v = 0; v < streams.size(); ++v) {
    CSD_CHECK_MSG(streams[v].size() == link_rng_[v].size(),
                  "snapshot fault streams for node " << v << " cover "
                  << streams[v].size() << " ports, topology has "
                  << link_rng_[v].size());
    for (std::size_t p = 0; p < streams[v].size(); ++p)
      link_rng_[v][p].set_state(streams[v][p]);
  }
}

std::optional<std::uint64_t> FaultInjector::crash_round(
    std::uint32_t node) const {
  CSD_DCHECK(node < crash_round_.size());
  return crash_round_[node];
}

}  // namespace csd::congest
