// Deterministic engine snapshots: the csd-ckpt-v1 format.
//
// A Snapshot freezes a run mid-flight so it can be discarded and resumed
// later — on another process, another day — with the contract that the
// resumed run is *bit-identical* to the uninterrupted one: same verdicts,
// same FaultReport, same trace suffix, at every --jobs count. Two kinds
// share the schema, one per restart unit a driver has:
//   * AsyncSnapshot     — the async engine between two events (scheduler
//                         queue, synchronizer state, ARQ endpoints, RNG
//                         streams, fault-plan cursor — everything);
//   * AmplifiedSnapshot — an amplified/supervised batch at a repetition
//                         boundary (the aggregated prefix outcome). The
//                         synchronous engine restarts at repetitions only.
//
// Program state is NOT serialized. NodeProgram objects are arbitrary user
// code, so an async snapshot instead records every node's *delivered inbox
// log* (sender-based message logging): programs are pure functions of
// their inbox history and their seeded RNG draws, so replaying the logged
// inboxes through a freshly constructed program — sends discarded,
// violations routed to a scratch sink — reconstructs its internal state
// bit-exactly. The replay is fault-transparent: logged payloads are
// post-corruption, and the fault injector's stream positions are restored
// directly, so no fate is ever re-drawn.
//
// Zero-observer contract: capturing a checkpoint never perturbs the run it
// is captured from. Logging copies payloads, capture copies state, and no
// RNG is consumed — a run with checkpointing enabled reaches the very same
// outcome as one without (fuzzer-enforced, src/fuzz/differential.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/program.hpp"
#include "congest/transport.hpp"
#include "graph/graph.hpp"
#include "obs/json.hpp"
#include "support/bitvec.hpp"

namespace csd::congest {

inline constexpr const char* kSnapshotSchema = "csd-ckpt-v1";

/// Raw xoshiro256** position (Rng::state / Rng::set_state).
using RngState = std::array<std::uint64_t, 4>;

/// Delivered-inbox history of one async node. log[r][p] holds the payload
/// that reached port p's inbox for consumption at pulse r (post-corruption
/// — exactly what the program saw), nullopt when the port was silent.
/// log[0] is always all-nullopt: pulse 0 has an empty inbox by
/// construction. This is the raw material of program-state reconstruction.
using InboxLog = std::vector<std::vector<std::optional<BitVec>>>;

/// Fingerprint of the run a snapshot belongs to. Resume CHECK-fails on a
/// mismatch instead of silently replaying a log against the wrong topology
/// or fault plan.
struct SnapshotIdentity {
  std::uint64_t topology = 0;  ///< digest over n, adjacency, identifiers
  std::uint64_t config = 0;    ///< digest over the engine knobs + fault plan
  std::uint64_t seed = 0;      ///< the run seed (per-repetition under batch)

  friend bool operator==(const SnapshotIdentity&,
                         const SnapshotIdentity&) = default;
};

/// FNV-1a step for the digests above.
constexpr std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v;
  h *= 1099511628211ULL;
  return h;
}
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

/// Digest over vertex count, CSR rows in port order, and identifiers.
std::uint64_t topology_digest(const GraphCsr& csr,
                              const std::vector<NodeId>& ids);

/// Digest over a fault plan (drop/corrupt probabilities bit-exactly,
/// corrupt_headers, crash schedule). Folded into the config digests.
std::uint64_t fault_plan_digest(const FaultPlan& plan);

// --------------------------------------------------------------- async --

/// One scheduler event, as the async engine queues it: a data packet or ack
/// arriving, a retransmission timer firing at the sender, or a crashed node
/// rejoining.
struct EventRecord {
  enum class Kind : std::uint8_t { Data, Ack, Timer, Recover };

  std::uint64_t time = 0;
  std::uint64_t seq = 0;  // FIFO/determinism tiebreak
  Kind kind = Kind::Data;
  // Directed link the event belongs to, sender side: (src, src_port).
  std::uint32_t src = 0;
  std::uint32_t src_port = 0;
  // Receiver side (valid for Data; for Ack it is the original data sender).
  std::uint32_t dst = 0;
  std::uint32_t dst_port = 0;
  std::uint64_t link_seq = 0;  // transport sequence number (Ack/Timer/Data)
  DataPacket packet;           // Data only (raw mode leaves seq/crc zero)
};

/// One async node's engine state: synchronizer bookkeeping, buffered
/// frames, ARQ endpoints, recovery bookkeeping, and the inbox log for
/// program replay. The engine runs on these records; a snapshot copies them.
/// What the NodeApi mutates (halted flag, verdict) lives in the engine's
/// node records instead, which a snapshot saves beside these.
struct AsyncNodeState {
  std::uint64_t pulse = 0;       // next pulse to execute
  std::uint64_t local_time = 0;  // virtual time the node last acted
  std::vector<std::deque<Frame>> arrived;  // per port, FIFO order
  std::vector<std::uint8_t> port_dead;  // per port: sender halted, no more
  std::uint8_t running = 1;     // 0 once halted, crashed, or cap-stopped
  std::uint8_t crashed = 0;     // fault-injected or program fault
  std::uint8_t crash_done = 0;  // scheduled crash already honored
  std::uint32_t recoveries_used = 0;
  InboxLog inbox;
  std::vector<LinkSender> senders;      // reliable mode only, per port
  std::vector<LinkReceiver> receivers;  // reliable mode only, per port
  std::vector<std::uint64_t> link_watermark;  // FIFO per src-port, acks too
  bool recovery_pending = false;  // not saved: resume derives it from events
};

/// The async engine's accumulated accounting, declared once: a run's
/// outcome (AsyncRunOutcome) holds it, and so does a snapshot of the run.
struct AsyncAccounting {
  /// Pulses executed (== synchronous rounds when the run completes).
  std::uint64_t pulses = 0;
  /// Virtual time of the last delivery (event-queue clock).
  std::uint64_t virtual_time = 0;
  /// Program payload bits (comparable to the synchronous metrics). Counted
  /// once per frame when the synchronizer hands it to the wire; drops and
  /// retransmissions never change it.
  std::uint64_t payload_bits = 0;
  /// Synchronizer framing overhead in bits (Frame::kOverheadBits per frame:
  /// the pulse field plus the halted/has-payload flags).
  std::uint64_t overhead_bits = 0;
  std::uint64_t frames = 0;
  /// Reliable-transport overhead in bits: seq + CRC fields on first
  /// transmissions, full packets for retransmissions, and ack packets.
  std::uint64_t transport_bits = 0;
  /// Ack packets sent by the reliable transport.
  std::uint64_t acks = 0;
  /// Structured fault/violation account (see congest/faults.hpp).
  FaultReport faults;
};

/// The async engine frozen between two scheduler events.
struct AsyncSnapshot : AsyncAccounting {
  SnapshotIdentity identity;
  std::vector<AsyncNodeState> nodes;
  /// The node records a program mutates, per node: its halted flag and its
  /// verdict. Resume replays the live nodes, checks these against the
  /// replay, and keeps them for the crashed ones (a node that rejected and
  /// then crashed for good still rejected).
  std::vector<std::uint8_t> halted;
  std::vector<Verdict> verdicts;
  std::vector<EventRecord> events;
  std::uint64_t next_event_seq = 0;
  RngState delay_rng{};
  std::vector<std::vector<RngState>> fault_streams;
  /// Nodes halted and not crashed, and nodes halted or crashed: saved, and
  /// checked on resume against the records and the `crashed` flags.
  std::uint32_t halted_count = 0;
  std::uint32_t stopped_count = 0;
  std::uint32_t pending_recoveries = 0;
  /// Captured after the event loop already ended (the requested pulse was
  /// crossed inside the final event's cascade). The frozen state IS the
  /// final state: resume skips the event loop — the leftover events were
  /// abandoned by the original run and must stay abandoned.
  std::uint8_t terminal = 0;
};

// ----------------------------------------------------------- amplified --

/// A sync run's accumulated accounting, declared once: a run's RunMetrics
/// holds it, and so does a snapshot of a batch of runs.
struct RunAccounting {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  /// Largest single-message size observed (must be <= bandwidth unless 0).
  std::uint64_t max_message_bits = 0;
  /// Per-node total bits sent (indexed by topology index).
  std::vector<std::uint64_t> bits_sent_by_node;
  /// Repetitions whose costs are included in this struct. 1 for a plain
  /// Network::run; an amplified run sums costs over exactly this many.
  std::uint32_t repetitions_executed = 1;
  /// Repetitions planned but not executed: planned minus executed, whether
  /// early exit (one-sided detection: once a repetition rejects, later ones
  /// cannot change the answer), the deadline or a pause cut the batch.
  /// Their costs are NOT included above — accounting stays honest. Always 0
  /// in an amplified snapshot, whose batch is still in progress.
  std::uint32_t repetitions_skipped = 0;
};

/// An amplified batch frozen at a repetition boundary: the aggregate
/// (merge_amplified rules) over repetitions < next_repetition.
struct AmplifiedSnapshot : RunAccounting {
  SnapshotIdentity identity;
  std::uint32_t next_repetition = 0;
  std::uint32_t repetitions = 0;  // total planned
  std::uint8_t completed = 1;
  std::uint8_t detected = 0;
  std::vector<std::uint8_t> verdict_reject;  // per node
  std::uint32_t retries_used = 0;
  FaultReport faults;
};

// ------------------------------------------------------------- wrapper --

struct Snapshot {
  enum class Kind : std::uint8_t { Async, Amplified };
  Kind kind = Kind::Async;
  // Exactly one of these is meaningful, selected by `kind`.
  AsyncSnapshot async_state;
  AmplifiedSnapshot amplified;
};

const char* to_string(Snapshot::Kind kind) noexcept;

/// Serialize to the csd-ckpt-v1 JSON document (deterministic: insertion-
/// ordered objects, integer-exact numbers).
obs::Json to_json(const Snapshot& snapshot);

/// Strict parse (obs/codec.hpp): CheckFailure naming the key on a missing,
/// unknown or out-of-order key, or on a value the writer cannot produce.
Snapshot snapshot_from_json(const obs::Json& doc);

/// File round-trip (pretty-printed JSON). CheckFailure on I/O errors.
void save_snapshot(const std::string& path, const Snapshot& snapshot);
Snapshot load_snapshot(const std::string& path);

}  // namespace csd::congest
