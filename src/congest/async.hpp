// Asynchronous message-passing engine + synchronizer.
//
// The CONGEST model is synchronous; real networks are not. This engine runs
// the *same* NodeProgram objects over an event-driven network with
// adversarially jittered per-message delays (seeded, FIFO per link) under a
// classic frame synchronizer: every pulse, every node sends exactly one
// frame per incident edge — [halted][has_payload][payload] — and advances
// to the next pulse only once the current pulse's frame has arrived on
// every live port. With FIFO links this reproduces the synchronous
// execution exactly: per-node verdicts, payload bits, and message contents
// all match the synchronous engine bit-for-bit (tested), at the cost of
// Frame::kOverheadBits synchronizer-overhead bits (pulse + flags) per edge
// per pulse.
//
// This justifies studying the paper's algorithms on the synchronous
// simulator: nothing in their behaviour depends on timing.
//
// Links may additionally be *faulty* (congest/faults.hpp): seeded frame
// drops, payload bit-flips, and node crashes. Two wire disciplines:
//   * TransportMode::Raw — faults hit the synchronizer directly. A dropped
//     frame starves its destination port (the node stalls; the event queue
//     drains and the run ends with the stall recorded — no hang), and a
//     corrupted payload reaches the program (a program that throws on it
//     is recorded as crashed).
//   * TransportMode::Reliable — the ARQ transport (congest/transport.hpp)
//     sits under the synchronizer: CRC-checked, acked, retransmitted
//     packets restore exact FIFO semantics, so verdicts and payload bits
//     match the synchronous engine bit-for-bit even on heavily faulty
//     links. Transport overhead (seq + CRC fields, acks, retransmissions)
//     is accounted separately in transport_bits and never pollutes the
//     CONGEST payload accounting.
#pragma once

#include <cstdint>
#include <memory>

#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "congest/snapshot.hpp"
#include "congest/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/round_trace.hpp"

namespace csd::congest {

/// Node recovery for the async engine: a node killed by a *scheduled* crash
/// (FaultPlan::crash_schedule) rejoins after a configurable virtual-time
/// delay, rebuilding its program state by replaying its logged inbox history
/// — the in-engine model of "restart the host and restore its checkpoint".
/// Program-faulted nodes never recover: the fault is a deterministic
/// function of a delivered payload, so a restored replica would re-crash on
/// the same input.
///
/// While a node is down its neighbors' ARQ senders keep retransmitting into
/// the void; the engine parks those retransmission timers (and the dead
/// node's own pending-packet timers) instead of abandoning them, so after
/// the rejoin the backlogs drain and — on reliable links — the run finishes
/// with the fault-free verdicts (tested; see also the fuzzer's recovery
/// oracle).
struct RecoveryPolicy {
  bool enabled = false;
  /// Virtual-time ticks between the crash and the rejoin; 0 derives
  /// 4 * RTO (long enough that neighbors' timers have fired at least once).
  std::uint64_t rejoin_delay = 0;
  /// Recovery budget per node; crashes beyond it are final.
  std::uint32_t max_recoveries = 1;
};

struct AsyncConfig {
  /// Per-edge payload bandwidth per pulse (0 = unbounded), as in CONGEST.
  std::uint64_t bandwidth = 32;
  /// Pulse cap, mirroring NetworkConfig::max_rounds.
  std::uint64_t max_pulses = 1'000'000;
  /// Seed for node-local randomness (same derivation as the synchronous
  /// engine, so programs draw identical randomness) and for link delays.
  std::uint64_t seed = 1;
  std::uint64_t namespace_size = 0;
  /// Broadcast-only CONGEST enforcement, as in NetworkConfig.
  bool broadcast_only = false;
  /// Each frame's link delay is drawn uniformly from [1, max_delay].
  std::uint32_t max_delay = 8;
  /// Fault environment (drops, corruption, crashes). Empty = fault-free.
  FaultPlan faults;
  /// Wire discipline; Reliable restores exact semantics under faults.
  TransportMode transport = TransportMode::Raw;
  /// Per-pulse observability. Accounted at the synchronizer's frame
  /// emission (sender side, payload-carrying frames only), so a fault-free
  /// async trace matches the synchronous engine's trace bit-for-bit.
  obs::TraceOptions trace;
  /// Crash recovery (see RecoveryPolicy). Enabling it turns on inbox
  /// logging so any node can be replayed back to life.
  RecoveryPolicy recovery;
  /// Capture a csd-ckpt-v1 snapshot into AsyncRunOutcome::checkpoint the
  /// first time the pulse counter reaches this value (0 = never). Capture
  /// happens between two scheduler events and never perturbs the run.
  std::uint64_t checkpoint_at_pulse = 0;
  /// Stall watchdog: cut the run (faults.watchdog_stalls = 1) when the
  /// event clock advances `stall_window * RTO` past the last delivery or
  /// recovery without progress. 0 = disabled.
  std::uint64_t stall_window = 0;
  /// Optional csd-metrics-v2 plane (non-owning; must outlive the run).
  /// Write-only and excluded from config_digest, exactly like the sync
  /// engine's NetworkConfig::telemetry. nullptr = zero cost.
  obs::Telemetry* telemetry = nullptr;
};

/// The run's accounting (AsyncAccounting, congest/snapshot.hpp) plus what
/// a snapshot does not carry.
struct AsyncRunOutcome : AsyncAccounting {
  bool completed = false;
  std::vector<Verdict> verdicts;
  bool detected = false;
  /// Per-pulse payload trajectory (empty unless config.trace.enabled).
  obs::RunTrace trace;
  /// Wall-clock split (compute / synchronizer delivery / transport), filled
  /// only when config.trace.timers is set. Never part of the trace or of
  /// any determinism digest: wall clocks are not reproducible.
  obs::EngineTimers timers;
  /// The csd-ckpt-v1 snapshot captured at config.checkpoint_at_pulse
  /// (nullptr when none was requested or the run ended first). Feed it to
  /// resume_async — with the same topology, ids, and config — to continue
  /// the run bit-identically.
  std::shared_ptr<const Snapshot> checkpoint;
};

/// Run `factory`'s programs over `topology` asynchronously under the frame
/// synchronizer. Equivalent to Network::run with the matching config.
AsyncRunOutcome run_async(const Graph& topology, const AsyncConfig& config,
                          const ProgramFactory& factory);

/// Run with explicit identifiers.
AsyncRunOutcome run_async(const Graph& topology, const AsyncConfig& config,
                          std::vector<NodeId> ids,
                          const ProgramFactory& factory);

/// Resume an async run from a csd-ckpt-v1 snapshot captured by a run with
/// the same topology, identifiers, and configuration (CHECK-enforced via
/// the snapshot identity digests). The continuation is bit-identical to the
/// uninterrupted run: verdicts, FaultReport, accounting, and the trace
/// suffix for pulses >= the capture point all match.
AsyncRunOutcome resume_async(const Graph& topology, const AsyncConfig& config,
                             std::vector<NodeId> ids,
                             const ProgramFactory& factory,
                             const Snapshot& snapshot);

/// Resume with the default identity assignment ids[v] = v.
AsyncRunOutcome resume_async(const Graph& topology, const AsyncConfig& config,
                             const ProgramFactory& factory,
                             const Snapshot& snapshot);

}  // namespace csd::congest
