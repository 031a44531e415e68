// Deterministic fault injection for the CONGEST engines.
//
// A FaultPlan describes an adversarial-but-reproducible environment: every
// transmission on a directed link may be dropped or have one payload bit
// flipped, and nodes may crash at a scheduled round. All randomness is
// derived from the run seed with one independent stream per directed link,
// consumed once per transmission in link-FIFO order, so the fate of the
// i-th transmission on a link is a pure function of (seed, link, i) — the
// same plan over the same seed yields the same FaultReport on every run,
// on either engine.
//
// Faults never abort the process. Instead of the historical throw-on-
// violation behavior, both engines degrade gracefully and record what
// happened in a structured FaultReport carried on the run outcome:
// protocol violations (bandwidth overruns, duplicate sends, broadcast-mode
// mismatches), crashed nodes (scheduled crashes and program faults on
// corrupted input), stalled nodes (live but starved of frames), and the
// reliable-transport counters (retransmissions, checksum rejects, link
// failures).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"

namespace csd::congest {

/// Crash node (topology index) at the start of `round`: the node executes
/// rounds < `round` normally, then falls silent forever — unlike a graceful
/// halt, no "I am done" frame is emitted, so neighbors cannot tell a crashed
/// peer from a slow one.
struct CrashEvent {
  std::uint32_t node = 0;
  std::uint64_t round = 0;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// The fault environment of one run. Default-constructed = fault-free.
struct FaultPlan {
  /// Probability that a transmission is dropped on the wire.
  double drop = 0.0;
  /// Probability that a transmission has one uniformly random payload bit
  /// flipped (frames without payload cannot be corrupted).
  double corrupt = 0.0;
  /// Extend the corrupt-bit draw to the frame header (async engines only):
  /// the flipped bit is drawn uniformly over pulse + halted-flag + payload
  /// bits instead of payload bits alone, so even payload-free frames can be
  /// corrupted. Under TransportMode::Reliable the CRC covers the header and
  /// rejects such packets; under Raw a corrupted pulse desynchronizes the
  /// destination port (recorded as a stall). The synchronous engine has no
  /// frame headers and ignores this flag.
  bool corrupt_headers = false;
  /// Scheduled crash-at-round events (at most one per node is honored; the
  /// earliest wins).
  std::vector<CrashEvent> crashes;

  bool has_link_faults() const noexcept { return drop > 0.0 || corrupt > 0.0; }
  bool empty() const noexcept { return !has_link_faults() && crashes.empty(); }
};

/// What went wrong, where. Violations replace the old throw-on-violation
/// behavior of the engines: the offending send is clamped (see network.hpp)
/// and the run continues with a diagnosable outcome.
enum class ViolationKind : std::uint8_t {
  /// Message exceeded the per-edge bandwidth; payload truncated to B bits.
  Bandwidth,
  /// Second send on one port in one round; the later send is ignored.
  DuplicateSend,
  /// broadcast_only mode saw two different payloads in one round; the send
  /// is honored anyway and the mismatch recorded.
  BroadcastMismatch,
  /// The node program threw while processing its inbox (typically a wire
  /// decode of a corrupted payload); the node is marked crashed.
  ProgramFault,
};

const char* to_string(ViolationKind kind) noexcept;

struct ProtocolViolation {
  ViolationKind kind = ViolationKind::Bandwidth;
  std::uint32_t node = 0;   // topology index
  std::uint64_t round = 0;  // round (sync) / pulse (async)
  std::string detail;

  friend bool operator==(const ProtocolViolation&,
                         const ProtocolViolation&) = default;
};

/// Structured account of every fault observed in a run. Equality-comparable
/// so determinism (same seed -> same report) is directly assertable.
struct FaultReport {
  // Link-level events (both engines).
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;

  // Reliable-transport counters (async engine, TransportMode::Reliable).
  std::uint64_t retransmissions = 0;
  std::uint64_t checksum_rejects = 0;   // corrupted packets caught by CRC
  std::uint64_t duplicate_packets = 0;  // retransmit raced a late ack
  std::uint64_t duplicate_acks = 0;     // ack for an already-settled packet
  std::uint64_t transport_failures = 0; // packets that exhausted retries

  /// Nodes that crashed (scheduled crash or program fault), in crash order.
  std::vector<std::uint32_t> crashed_nodes;
  /// Nodes that crashed and later rejoined under a RecoveryPolicy (async
  /// engine), in rejoin order. A recovered node counts as a survivor.
  std::vector<std::uint32_t> recovered_nodes;
  /// Pulses deterministically re-executed from inbox logs to rebuild
  /// program state on rejoin/resume (not charged to any accounting).
  std::uint64_t replayed_pulses = 0;
  /// 1 if the stall watchdog cut the run short (no delivery progress for
  /// the configured window) instead of letting it spin to the cap.
  std::uint64_t watchdog_stalls = 0;
  /// Nodes still live but unhalted when the run ended — starved of frames
  /// by drops or crashed neighbors, or cut off by the round/pulse cap —
  /// in index order.
  std::vector<std::uint32_t> stalled_nodes;
  /// Clamped protocol violations, in occurrence order.
  std::vector<ProtocolViolation> violations;

  /// OR of Verdict::Reject over nodes that did NOT crash — the answer the
  /// surviving network actually reports.
  bool detected_by_survivors = false;

  /// Fold in a later run's report (amplified batches, async repetitions):
  /// counters summed, node and violation lists concatenated in order,
  /// detected_by_survivors ORed.
  void merge(FaultReport other);

  /// Every counter row (fault_rows) is zero.
  bool clean() const noexcept;

  friend bool operator==(const FaultReport&, const FaultReport&) = default;
};

/// The field lists csd-ckpt-v1 reads and writes a report with
/// (obs/codec.hpp). report_fields' keys also name the counter rows.
constexpr auto violation_fields = [](auto& io, auto& r) {
  io("kind", r.kind, ViolationKind::ProgramFault);
  io("node", r.node);
  io("round", r.round);
  io("detail", r.detail);
};

constexpr auto report_fields = [](auto& io, auto& r) {
  io("frames_dropped", r.frames_dropped);
  io("frames_corrupted", r.frames_corrupted);
  io("retransmissions", r.retransmissions);
  io("checksum_rejects", r.checksum_rejects);
  io("duplicate_packets", r.duplicate_packets);
  io("duplicate_acks", r.duplicate_acks);
  io("transport_failures", r.transport_failures);
  io("crashed_nodes", r.crashed_nodes);
  io("recovered_nodes", r.recovered_nodes);
  io("replayed_pulses", r.replayed_pulses);
  io("watchdog_stalls", r.watchdog_stalls);
  io("stalled_nodes", r.stalled_nodes);
  io("violations", r.violations, violation_fields);
  io("detected_by_survivors", r.detected_by_survivors);
};

/// The report's counter rows in report_fields order: visit(key, value) for
/// each count, and for each list with its length. The survivors' verdict
/// is a flag, not a count.
template <typename Visit>
void fault_rows(const FaultReport& report, Visit&& visit) {
  auto row = [&](std::string_view key, const auto& value, const auto&...) {
    if constexpr (std::is_same_v<decltype(value), const std::uint64_t&>)
      visit(key, value);
    else if constexpr (!std::is_same_v<decltype(value), const bool&>)
      visit(key, std::uint64_t{value.size()});
  };
  report_fields(row, report);
}

/// Render a one-line-per-field human summary (used by the CLI).
std::string summarize(const FaultReport& report);

/// Draws fault fates deterministically. One RNG stream per directed link
/// (src, src-port), advanced a fixed number of times per transmission, so
/// fates are independent of event interleaving and of each other.
class FaultInjector {
 public:
  /// Streams for every directed link of `csr`, which need not outlive it.
  FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                const GraphCsr& csr);

  /// Fate of the next transmission on the directed link (src, port).
  /// `corruptible_bits` sizes the corrupt-bit draw (the caller decides what
  /// is corruptible: payload only, or header + payload when the plan sets
  /// corrupt_headers); a transmission with 0 corruptible bits is never
  /// corrupted. Advances the link stream by a fixed number of draws either
  /// way, so fates stay a pure function of (seed, link, transmission index).
  struct Fate {
    bool dropped = false;
    bool corrupted = false;
    std::size_t corrupt_bit = 0;  // valid iff corrupted
  };
  Fate next_fate(std::uint32_t src, std::uint32_t port,
                 std::size_t corruptible_bits);

  /// Round at which `node` is scheduled to crash, if any.
  std::optional<std::uint64_t> crash_round(std::uint32_t node) const;

  /// Snapshot/restore of every link stream's RNG position, [src][port].
  /// Restoring mid-run resumes the exact fate sequence, which is what makes
  /// checkpointed runs bit-identical to straight-through ones.
  std::vector<std::vector<std::array<std::uint64_t, 4>>> save_streams() const;
  void restore_streams(
      const std::vector<std::vector<std::array<std::uint64_t, 4>>>& streams);

 private:
  FaultPlan plan_;
  std::vector<std::uint64_t> offsets_;  // link (v, p) is offsets_[v] + p
  std::vector<Rng> link_rng_;           // by dense directed-edge index
  std::vector<std::optional<std::uint64_t>> crash_round_;
};

}  // namespace csd::congest
