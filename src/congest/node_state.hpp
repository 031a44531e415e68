// Internal: the per-node records a run mutates, the one NodeApi
// implementation, and the run workspace that holds them — shared by the
// synchronous round kernel and the asynchronous engine (which presents the
// same pulse-by-pulse API through its synchronizer).
//
// What the NodeApi mutates per node is three flat arrays (NodeRecords): the
// node's Rng, its halted flag and its verdict, 34 bytes a node. The rest of
// what a program sees is read in place from the EngineTopology (id, degree,
// neighbour ids, the node's arena rows) or is run-constant (bandwidth,
// sizes, the violation sink, the trace or phase slot, the scratch() pool).
// So NodeState is a view: the engine binds it to node v before v's
// on_round, and one view serves every node — the round kernel keeps one
// per worker, the async engine one per engine, and replay and recovery
// rebind the engine's view with a scratch violation sink and no trace.
//
// The view does not own the message slots either: they are rows of the
// inbox and outbox FrameArenas (frame_arena.hpp). Sends and deliveries swap
// payload buffers into the slots instead of copying them, and the heap
// buffers displaced by sends (payloads above BitVec::kInlineBits) feed the
// view's scratch() pool, so scratch() recycles buffers from the engine's
// earlier sends, whichever node made them.
//
// A RunWorkspace is a synchronous run's working memory: the two arenas,
// the node records, the kernel's crash and wake arrays and the storage of
// the programs vector. A Network hands its idle workspaces to its next
// runs (network.hpp), and a run resets the one it takes, so only a
// Network's first run (or its first runs at once) allocates one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/frame_arena.hpp"
#include "congest/network.hpp"
#include "congest/program.hpp"
#include "obs/round_trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::congest::detail {

/// What the NodeApi mutates per node: one flat array each, by node index.
struct NodeRecords {
  std::vector<Rng> rngs;
  std::vector<std::uint8_t> halted;
  std::vector<Verdict> verdicts;

  /// `n` fresh nodes of a run seeded `run_seed`, in the arrays' storage.
  void reset(Vertex n, std::uint64_t run_seed) {
    rngs.resize(n);
    for (Vertex v = 0; v < n; ++v) rngs[v].reseed(derive_seed(run_seed, v));
    halted.assign(n, 0);
    verdicts.assign(n, Verdict::Accept);
  }

  /// Node v as a fresh node of a run seeded `run_seed`.
  void reset_node(Vertex v, std::uint64_t run_seed) {
    rngs[v].reseed(derive_seed(run_seed, v));
    halted[v] = 0;
    verdicts[v] = Verdict::Accept;
  }
};

class NodeState final : public NodeApi {
 public:
  /// A view over the nodes of `topology`: their NodeApi state is
  /// `records`, their message slots the rows of `inbox` and `outbox`, all
  /// of which must outlive the view. `violations` (owned by the engine,
  /// non-null) receives clamped violations (network.hpp). Call bind()
  /// before anything else.
  NodeState(const EngineTopology& topology, std::uint64_t bandwidth,
            bool broadcast_only, NodeRecords& records, FrameArena& inbox,
            FrameArena& outbox, std::vector<ProtocolViolation>* violations)
      : topology_(&topology),
        network_size_(topology.num_vertices()),
        namespace_size_(topology.namespace_size),
        bandwidth_(bandwidth),
        broadcast_only_(broadcast_only),
        records_(&records),
        inbox_(&inbox),
        outbox_(&outbox),
        violations_(violations) {
    CSD_CHECK(violations_ != nullptr);
  }

  /// Point the view at node `v`: until the next bind, every call reads and
  /// writes v's records and arena rows.
  void bind(Vertex v) {
    const std::uint64_t first = topology_->csr.offsets[v];
    index_ = v;
    degree_ = static_cast<std::uint32_t>(topology_->csr.offsets[v + 1] - first);
    first_ = first;
    inbox_payload_ = inbox_->payload_row(first);
    inbox_present_ = inbox_->present_row(first);
    outbox_payload_ = outbox_->payload_row(first);
    outbox_present_ = outbox_->present_row(first);
  }

  // NodeApi -----------------------------------------------------------
  NodeId id() const override { return topology_->ids[index_]; }
  std::uint32_t degree() const override { return degree_; }
  NodeId neighbor_id(std::uint32_t port) const override {
    CSD_CHECK_MSG(port < degree_, "neighbor_id: port out of range");
    return topology_->neighbor_ids[first_ + port];
  }
  std::uint64_t round() const override { return round_; }
  std::uint64_t network_size() const override { return network_size_; }
  std::uint64_t namespace_size() const override { return namespace_size_; }
  std::uint64_t bandwidth() const override { return bandwidth_; }

  const BitVec* inbox(std::uint32_t port) const override {
    CSD_CHECK_MSG(port < degree_, "inbox: port out of range");
    return inbox_present_[port] != 0 ? &inbox_payload_[port] : nullptr;
  }

  void send(std::uint32_t port, BitVec payload) override {
    CSD_CHECK_MSG(records_->halted[index_] == 0, "halted node cannot send");
    CSD_CHECK_MSG(port < degree_, "send: port out of range");
    if (bandwidth_ != 0 && payload.size() > bandwidth_) {
      std::ostringstream detail;
      detail << "message of " << payload.size() << " bits exceeds bandwidth "
             << bandwidth_ << "; truncated";
      record_violation(ViolationKind::Bandwidth, detail.str());
      payload.truncate(bandwidth_);
    }
    if (outbox_present_[port] != 0) {
      std::ostringstream detail;
      detail << "two sends on port " << port << " in one round; second send "
             << "ignored";
      record_violation(ViolationKind::DuplicateSend, detail.str());
      return;
    }
    if (broadcast_only_) {
      if (round_payload_.has_value()) {
        if (!(*round_payload_ == payload))
          record_violation(ViolationKind::BroadcastMismatch,
                           "broadcast-only CONGEST: all messages in a round "
                           "must be identical");
      } else {
        round_payload_ = payload;
      }
    }
    // Swap the message into the arena slot. A displaced heap buffer (stale
    // contents, unobservable while absent) retires into the scratch pool so
    // its capacity keeps circulating; an inline one has nothing to reuse.
    outbox_payload_[port].swap(payload);
    outbox_present_[port] = 1;
    if (payload.on_heap() && pool_.size() < degree_)
      pool_.push_back(std::move(payload));
  }

  void broadcast(const BitVec& payload) override {
    for (std::uint32_t p = 0; p < degree_; ++p) {
      BitVec copy = scratch();
      copy.assign(payload);
      send(p, std::move(copy));
    }
  }

  Rng& rng() override { return records_->rngs[index_]; }

  BitVec scratch() override {
    if (pool_.empty()) return BitVec{};
    BitVec buf = std::move(pool_.back());
    pool_.pop_back();
    buf.clear();  // the heap buffer is retained, so capacity is reused
    return buf;
  }

  void phase(std::string_view name) override {
    // Engines only wire a trace when one is recording, so the disabled-path
    // cost is the same single predicted branch record() pays.
    if (trace_ != nullptr) trace_->set_phase(round_, name);
    else if (phase_slot_ != nullptr && !phase_slot_->has_value())
      phase_slot_->emplace(name);
  }

  void sleep_until(std::uint64_t round) override {
    if (round > round_ + 1) wake_hint_ = round;
  }

  void reject() override { records_->verdicts[index_] = Verdict::Reject; }
  void halt() override { records_->halted[index_] = 1; }

  // Simulator plumbing --------------------------------------------------
  /// Route NodeApi::phase declarations into `trace` (nullptr = discard).
  /// The engine owns the trace; it must outlive this view.
  void set_trace(obs::RunTrace* trace) { trace_ = trace; }

  /// Alternative to set_trace at W >= 2 workers: RunTrace::set_phase is
  /// not thread-safe, so a worker's view parks its round's first phase
  /// declaration in this per-worker slot instead; the coordinator forwards
  /// it into the trace at the barrier. Ignored while a trace is attached.
  void set_phase_slot(std::optional<std::string>* slot) { phase_slot_ = slot; }

  /// Redirect violation recording (non-null, engine-owned). Snapshot resume
  /// and node recovery replay past rounds through a scratch sink — the
  /// restored FaultReport already carries those violations — then point the
  /// view back at the live report before handing it to the run loop.
  void set_violation_sink(std::vector<ProtocolViolation>* violations) {
    CSD_CHECK(violations != nullptr);
    violations_ = violations;
  }

  /// Start round `r` of the bound node.
  void begin_round(std::uint64_t r) {
    round_ = r;
    wake_hint_ = 0;
    round_payload_.reset();
    // Presence bytes only: the delivery pass already consumed this node's
    // outbox presence, but a crash/resume path may leave stragglers.
    discard_outbox();
  }
  void clear_inbox() { inbox_->clear_row(first_, degree_); }
  void deliver(std::uint32_t port, BitVec payload) {
    inbox_payload_[port].swap(payload);
    inbox_present_[port] = 1;
  }
  bool outbox_present(std::uint32_t port) const {
    return outbox_present_[port] != 0;
  }
  BitVec& outbox_payload(std::uint32_t port) { return outbox_payload_[port]; }
  void consume_outbox(std::uint32_t port) { outbox_present_[port] = 0; }
  void discard_outbox() { outbox_->clear_row(first_, degree_); }
  /// The round the bound node asked to sleep until during its latest
  /// on_round call (NodeApi::sleep_until), or 0 for no hint. The
  /// synchronous round kernel reads it at every worker count; the async
  /// engine ignores it.
  std::uint64_t wake_hint() const { return wake_hint_; }

 private:
  void record_violation(ViolationKind kind, std::string detail) {
    violations_->push_back(
        {kind, static_cast<std::uint32_t>(index_), round_, std::move(detail)});
  }

  // Run-constant.
  const EngineTopology* topology_;
  std::uint64_t network_size_;
  std::uint64_t namespace_size_;
  std::uint64_t bandwidth_;
  bool broadcast_only_;
  NodeRecords* records_;
  FrameArena* inbox_;
  FrameArena* outbox_;
  std::vector<ProtocolViolation>* violations_;
  obs::RunTrace* trace_ = nullptr;
  std::optional<std::string>* phase_slot_ = nullptr;
  std::vector<BitVec> pool_;  // retired payload buffers (see scratch())
  // The bound node (bind): its index and rows. Payload buffers and
  // presence bytes are parallel arrays indexed by port.
  Vertex index_ = 0;
  std::uint32_t degree_ = 0;
  std::uint64_t first_ = 0;  // dense index of port 0
  BitVec* inbox_payload_ = nullptr;
  std::uint8_t* inbox_present_ = nullptr;
  BitVec* outbox_payload_ = nullptr;
  std::uint8_t* outbox_present_ = nullptr;
  // The bound node's current round (begin_round).
  std::uint64_t round_ = 0;
  std::uint64_t wake_hint_ = 0;
  std::optional<BitVec> round_payload_;
};

/// A synchronous run's working memory. A Network keeps the idle ones and
/// hands one to each run (network.hpp); it holds no pointer into the
/// topology, so it survives a move of its Network.
struct RunWorkspace {
  FrameArena inbox;
  FrameArena outbox;
  NodeRecords nodes;
  // Byte flags, not vector<bool>: workers set disjoint entries in parallel.
  std::vector<std::uint8_t> crashed;
  std::vector<std::uint64_t> wake;  // next round v runs (DESIGN.md §15)
  /// Storage only: the kernel builds a run's programs into it and destroys
  /// them when the run ends.
  std::vector<std::unique_ptr<NodeProgram>> programs;

  /// Ready for a run seeded `run_seed` on `topology`: every slot absent and
  /// every node fresh, live and due at round 0. Allocates only on the
  /// workspace's first run.
  void reset(const EngineTopology& topology, std::uint64_t run_seed) {
    const Vertex n = topology.num_vertices();
    const std::uint64_t edges = topology.csr.num_directed_edges();
    if (inbox.size() != edges) {
      inbox = FrameArena(edges);
      outbox = FrameArena(edges);
    } else {
      inbox.reset_presence();
      outbox.reset_presence();
    }
    nodes.reset(n, run_seed);
    crashed.assign(n, 0);
    wake.assign(n, 0);
    programs.clear();
    programs.reserve(n);
  }
};

}  // namespace csd::congest::detail
