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

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                             const GraphCsr& csr)
    : plan_(plan), offsets_(csr.offsets) {
  CSD_CHECK_MSG(plan_.drop >= 0.0 && plan_.drop <= 1.0,
                "drop probability " << plan_.drop << " outside [0, 1]");
  CSD_CHECK_MSG(plan_.corrupt >= 0.0 && plan_.corrupt <= 1.0,
                "corrupt probability " << plan_.corrupt << " outside [0, 1]");
  const Vertex n = csr.num_vertices();
  // Link (v, p) is keyed (v << 20) | p < 2^52, unique below port 2^20; a
  // wider port keys on its dense edge index with bit 63 set.
  const std::uint64_t link_seed = derive_seed(seed, 0xfa017ULL);
  link_rng_.reserve(csr.num_directed_edges());
  for (Vertex v = 0; v < n; ++v)
    for (std::uint64_t p = 0; p < csr.degree(v); ++p)
      link_rng_.emplace_back(derive_seed(
          link_seed, p < (1ULL << 20) ? (std::uint64_t{v} << 20) | p
                                      : (1ULL << 63) | (offsets_[v] + p)));
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
  CSD_DCHECK(src + 1 < offsets_.size());
  CSD_DCHECK(port < offsets_[src + 1] - offsets_[src]);
  Rng& rng = link_rng_[offsets_[src] + port];
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
  std::vector<std::vector<std::array<std::uint64_t, 4>>> streams(
      crash_round_.size());  // one row per node
  for (std::size_t v = 0; v < streams.size(); ++v)
    for (std::uint64_t e = offsets_[v]; e < offsets_[v + 1]; ++e)
      streams[v].push_back(link_rng_[e].state());
  return streams;
}

void FaultInjector::restore_streams(
    const std::vector<std::vector<std::array<std::uint64_t, 4>>>& streams) {
  CSD_CHECK_MSG(streams.size() == crash_round_.size(),
                "snapshot fault streams cover " << streams.size()
                << " nodes, topology has " << crash_round_.size());
  for (std::size_t v = 0; v < streams.size(); ++v) {
    const std::uint64_t degree = offsets_[v + 1] - offsets_[v];
    CSD_CHECK_MSG(streams[v].size() == degree,
                  "snapshot fault streams for node " << v << " cover "
                  << streams[v].size() << " ports, topology has "
                  << degree);
    for (std::size_t p = 0; p < streams[v].size(); ++p)
      link_rng_[offsets_[v] + p].set_state(streams[v][p]);
  }
}

std::optional<std::uint64_t> FaultInjector::crash_round(
    std::uint32_t node) const {
  CSD_DCHECK(node < crash_round_.size());
  return crash_round_[node];
}

}  // namespace csd::congest
