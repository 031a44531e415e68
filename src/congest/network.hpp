// Synchronous CONGEST network simulator.
//
// The Network owns the topology, the identifier assignment, and the round
// loop. It enforces the model's cost constraints exactly:
//   * at most one message per directed edge per round,
//   * at most B bits per message (config.bandwidth; 0 = LOCAL model),
// and it accounts every bit sent. A run may also be watched message by
// message (MessageObserver): the two-party cut simulator charges crossing
// bits that way, and the §4 fooling adversary collects transcripts.
//
// Protocol violations degrade gracefully instead of aborting the run.
// Historically the engines threw CheckFailure on any model violation (and
// release builds were left with whatever verdict the partial run produced);
// both engines now share one structured path — the violation is *clamped*
// and recorded in RunOutcome::faults:
//   * bandwidth overrun      -> payload truncated to B bits, recorded;
//   * duplicate send on port -> second send ignored, recorded;
//   * broadcast-only mismatch-> send honored as-is, recorded.
// API misuse that cannot be clamped (port out of range, send after halt,
// identifiers outside the namespace) still throws CheckFailure.
//
// A NetworkConfig may also carry a FaultPlan (congest/faults.hpp): seeded
// per-link frame drops, payload bit-flips, and node crash-at-round events.
// Under faults the run still terminates (round cap at worst) and the
// outcome's FaultReport describes exactly what happened; a node program
// that throws while decoding a corrupted payload is marked crashed rather
// than taking the process down.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/partition.hpp"
#include "congest/program.hpp"
#include "congest/snapshot.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/round_trace.hpp"
#include "support/bitvec.hpp"

namespace csd::obs {
class Telemetry;  // obs/metrics_v2.hpp; config holds a non-owning pointer
}

namespace csd::congest {

struct NetworkConfig {
  /// Per-edge bandwidth in bits per round. 0 = unbounded (LOCAL model).
  std::uint64_t bandwidth = 32;
  /// Hard cap on rounds; a run that does not halt by then is flagged.
  std::uint64_t max_rounds = 1'000'000;
  /// Seed for all node-local randomness.
  std::uint64_t seed = 1;
  /// Identifier namespace size N: all ids lie in [0, N). 0 = derive as the
  /// number of nodes (the dense default namespace). Algorithms size their
  /// id fields as ⌈log2 N⌉ bits, so the namespace is part of the cost model
  /// (§4 quantifies lower bounds in N explicitly).
  std::uint64_t namespace_size = 0;
  /// Broadcast CONGEST ([DKO14], [KR17]): a node must send the *same*
  /// message on every edge it uses in a round (enforced per send).
  bool broadcast_only = false;
  /// Fault environment (drops, corruption, crashes). Empty = fault-free.
  /// Metrics and message observers see what the sender put on the wire;
  /// corruption is applied after accounting, before delivery.
  FaultPlan faults;
  /// Per-round observability (obs/round_trace.hpp). Disabled by default:
  /// the run loop then pays a single predicted branch per message and the
  /// outcome's trace stays empty (RunTrace::approx_bytes() == 0).
  obs::TraceOptions trace;
  /// Stall watchdog: if a window of this many consecutive rounds delivers
  /// no message and sees no halt or crash while unhalted nodes remain, cut
  /// the run (FaultReport::watchdog_stalls = 1, stragglers recorded as
  /// stalled) instead of spinning to max_rounds. 0 = disabled.
  std::uint64_t stall_window = 0;
  /// Worker count and partition of the round kernel (congest/shard.hpp):
  /// workers 0 and 1 run inline on the calling thread, workers >= 2 spread
  /// the nodes across that many worker threads. Every outcome field is
  /// bit-identical at every worker count; sharding is an execution
  /// strategy, not part of the model, and is therefore excluded from
  /// config_digest() (an amplified checkpoint resumes at any worker count).
  ShardSpec shard;
  /// Optional csd-metrics-v2 telemetry plane (obs/metrics_v2.hpp). Non-
  /// owning; must outlive the run. The engine only ever writes to it
  /// (counters, gauges, flight-recorder events), never reads it back, so
  /// attaching telemetry cannot change any deterministic output. Like
  /// trace and shard it is excluded from config_digest(): an amplified
  /// checkpoint resumes with or without telemetry attached.
  /// nullptr = zero cost (one predicted branch per instrumented site).
  obs::Telemetry* telemetry = nullptr;
};

/// Watches one run's messages: called once per sent message, in (round,
/// dense directed-edge) order at every worker count, on the thread that
/// called Network::run, with the payload as the sender put it on the wire
/// (before any fault fate). `src` and `dst` are topology indices. Attaching
/// one changes no output of the run.
using MessageObserver = std::function<void(
    std::uint64_t round, Vertex src, Vertex dst, const BitVec& payload)>;

/// Aggregate cost metrics of a run (or of an amplified batch of runs: see
/// merge_amplified in congest/supervisor.hpp for the per-field aggregation
/// rule): the run's accounting (RunAccounting, congest/snapshot.hpp) plus
/// what a snapshot does not carry.
struct RunMetrics : RunAccounting {
  /// The opt-in shard_* rows (ShardSpec::channel_counters), which depend on
  /// the worker count; empty otherwise. The run's fault counts live in
  /// RunOutcome::faults, and the trace summary's counter block holds both.
  /// Amplified: empty (each repetition's rows stay in its trace summary).
  obs::MetricsRegistry counters;
  /// Wall-clock split of the run (compute vs. delivery), filled only when
  /// NetworkConfig::trace.timers is set. Deliberately NOT part of the trace:
  /// timings are not deterministic, traces are. Amplified: summed.
  obs::EngineTimers timers;
};

struct RunOutcome {
  /// True iff every node halted gracefully before max_rounds (a crashed
  /// node never counts as halted). Amplified: AND across repetitions.
  bool completed = false;
  /// Verdict per node (topology index). Global answer below. Amplified:
  /// elementwise — Reject if the node rejected in any repetition.
  std::vector<Verdict> verdicts;
  /// True iff some node *ever* issued Reject — i.e. the algorithm claims
  /// "H present". Intended semantics (do not conflate the two flags):
  ///   * `detected` counts every Reject, including one issued by a node
  ///     that later crashed — it is the fault-free-model answer, the one
  ///     the paper's one-sided-error analysis speaks about;
  ///   * `faults.detected_by_survivors` counts Rejects only among nodes
  ///     alive at the end of the run — the answer an operator could
  ///     actually collect from the surviving network.
  /// On a fault-free run the two coincide. Amplified: OR, each over its own
  /// repetition's crash set.
  bool detected = false;
  RunMetrics metrics;
  /// Per-round message/bit trajectory (empty unless config.trace.enabled).
  /// Each run fills its own instance — no shared state — so runs under
  /// RunBatch trace concurrently without locks; merge_amplified appends the
  /// per-repetition traces in repetition order (deterministic at every jobs
  /// count).
  obs::RunTrace trace;
  /// Structured fault/violation account; FaultReport::clean() on a healthy
  /// run. See congest/faults.hpp. Amplified: counters summed, node/violation
  /// lists concatenated in repetition order.
  FaultReport faults;
};

namespace detail {

/// Flat tables over a CSR's dense directed-edge index e = offsets[v] + p.
struct EdgeTables {
  /// rev_port[e] = the port of neighbors(v)[p] that leads back to v.
  std::vector<std::uint32_t> rev_port;
  /// rev_edge[e] = the dense index of the reverse directed edge.
  std::vector<std::uint64_t> rev_edge;
  /// neighbor_ids[e] = ids[neighbors(v)[p]]; the NodeApi view reads the
  /// bound node's row in place.
  std::vector<NodeId> neighbor_ids;
};

EdgeTables build_edge_tables(const GraphCsr& csr,
                             const std::vector<NodeId>& ids);

/// The fixed object a run executes on: one topology and one identifier
/// assignment. Each engine builds this record once and owns it; runs only
/// read it, so concurrent runs share it without locks.
struct EngineTopology : EdgeTables {
  GraphCsr csr;  // row position = port
  std::vector<NodeId> ids;
  /// N, resolved: every id lies in [0, N).
  std::uint64_t namespace_size = 0;

  Vertex num_vertices() const noexcept { return csr.num_vertices(); }
  std::uint32_t degree(Vertex v) const noexcept { return csr.degree(v); }
};

/// The record of `topology` under `ids` in the namespace `namespace_size`
/// (0 = the number of nodes). The one check of an identifier assignment:
/// one id per node, each inside the namespace.
EngineTopology build_engine_topology(const Graph& topology,
                                     std::vector<NodeId> ids,
                                     std::uint64_t namespace_size);

/// The default identifier assignment, ids[v] = v.
std::vector<NodeId> index_ids(Vertex n);

struct RunWorkspace;  // congest/node_state.hpp

/// A Network's idle run workspaces. A run takes one (built if none is
/// idle) and gives it back when it ends, so the list never holds more
/// workspaces than the most runs that were in flight at once.
class WorkspacePool {
 public:
  ~WorkspacePool();  // in network.cpp, where RunWorkspace is complete

  std::unique_ptr<RunWorkspace> take();
  void give(std::unique_ptr<RunWorkspace> workspace);

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<RunWorkspace>> idle_;
};

}  // namespace detail

/// Synchronous simulator over a fixed topology and identifier assignment.
///
/// Construction builds everything the runs share — the engine topology
/// record (CSR, reverse-port and neighbor-identifier tables) and the
/// partition of config.shard — so repeated runs (amplification, sweeps)
/// pay for it once instead of once per repetition. Identifiers outside the
/// namespace fail here, before any run.
///
/// A run's working memory (frame arenas, node records, crash and wake
/// arrays, the programs vector's storage) is a workspace the Network hands
/// from run to run, so a Network's later runs allocate no O(n) or O(|E|)
/// table, only their programs. `run` is const and shares nothing else
/// mutable: each run takes an idle workspace under a mutex (or builds one)
/// and gives it back at its end, so concurrent runs of the SAME Network
/// from multiple threads each work in their own, and are safe provided
/// `factory` is itself safe to invoke concurrently (the library's program
/// factories are: they capture configs by value and allocate fresh
/// programs). Each run takes its own observer, so per-run state needs no
/// sharing. This is what RunBatch builds on. A Network is movable, not
/// copyable; a moved Network keeps its workspaces and runs the same.
class Network {
 public:
  /// Identifiers default to the topology index (ids[v] = v).
  Network(const Graph& topology, NetworkConfig config);
  Network(const Graph& topology, NetworkConfig config, std::vector<NodeId> ids);

  /// Run `factory`-created programs to completion (or the round cap).
  RunOutcome run(const ProgramFactory& factory) const;

  /// Same, but with the run seed overridden (node RNGs and the fault
  /// injector derive from `seed` instead of config().seed). This is how one
  /// Network serves every repetition of an amplified run. `observe`, when
  /// set, watches every message of this run (see MessageObserver).
  RunOutcome run(const ProgramFactory& factory, std::uint64_t seed,
                 const MessageObserver& observe = {}) const;

  /// Digest of the engine-relevant config knobs (bandwidth, max_rounds,
  /// namespace, broadcast mode, fault plan); part of SnapshotIdentity.
  std::uint64_t config_digest() const;

  const std::vector<NodeId>& ids() const noexcept { return topology_.ids; }
  const NetworkConfig& config() const noexcept { return config_; }

  // Plumbing for the round kernel (congest/shard.cpp) and the supervisor.
  const detail::EngineTopology& engine_topology() const noexcept {
    return topology_;
  }
  const Partition& partition() const noexcept { return partition_; }

 private:
  NetworkConfig config_;
  detail::EngineTopology topology_;
  Partition partition_;
  // On the heap: a mutex cannot move, a Network can.
  std::unique_ptr<detail::WorkspacePool> workspaces_;
};

/// Convenience: run `factory` over `topology` and return the outcome.
RunOutcome run_congest(const Graph& topology, const NetworkConfig& config,
                       const ProgramFactory& factory);

}  // namespace csd::congest
