// Internal: concrete per-node state + NodeApi implementation, shared by the
// synchronous Network and the asynchronous engine (which presents the same
// pulse-by-pulse API through its synchronizer).
//
// A NodeState does not own its message slots: the engine allocates one
// inbox and one outbox FrameArena per run (frame_arena.hpp) and attaches
// each node to its contiguous row via attach_frames(). Sends and deliveries
// swap payload buffers into the slots instead of copying them, and the heap
// buffers displaced by sends (payloads above BitVec::kInlineBits) feed the
// scratch() pool.
#pragma once

#include <cstring>
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

namespace csd::congest::detail {

class NodeState final : public NodeApi {
 public:
  /// Node `index` of `topology`, which must outlive it. `violations` (owned
  /// by the engine, non-null) receives clamped violations (network.hpp).
  NodeState(const EngineTopology& topology, Vertex index,
            std::uint64_t run_seed, std::uint64_t bandwidth,
            bool broadcast_only, std::vector<ProtocolViolation>* violations)
      : index_(index),
        degree_(topology.degree(index)),
        id_(topology.ids[index]),
        network_size_(topology.num_vertices()),
        namespace_size_(topology.namespace_size),
        bandwidth_(bandwidth),
        broadcast_only_(broadcast_only),
        violations_(violations),
        neighbor_ids_(topology.neighbor_ids.data() +
                      topology.csr.offsets[index]),
        rng_(derive_seed(run_seed, index)) {
    CSD_CHECK(violations_ != nullptr);
  }

  /// Point this node at its rows in the engine-owned frame arenas (payload
  /// buffers and presence bytes are separate flat arrays). Must be called
  /// before the first round; the arenas must outlive this NodeState.
  void attach_frames(BitVec* inbox_payload, std::uint8_t* inbox_present,
                     BitVec* outbox_payload, std::uint8_t* outbox_present) {
    inbox_payload_ = inbox_payload;
    inbox_present_ = inbox_present;
    outbox_payload_ = outbox_payload;
    outbox_present_ = outbox_present;
  }

  // NodeApi -----------------------------------------------------------
  NodeId id() const override { return id_; }
  std::uint32_t degree() const override { return degree_; }
  NodeId neighbor_id(std::uint32_t port) const override {
    CSD_CHECK_MSG(port < degree_, "neighbor_id: port out of range");
    return neighbor_ids_[port];
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
    CSD_CHECK_MSG(!halted_, "halted node cannot send");
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

  Rng& rng() override { return rng_; }

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

  void reject() override { verdict_ = Verdict::Reject; }
  void halt() override { halted_ = true; }

  // Simulator plumbing --------------------------------------------------
  /// Route NodeApi::phase declarations into `trace` (nullptr = discard).
  /// The engine owns the trace; it must outlive this NodeState.
  void set_trace(obs::RunTrace* trace) { trace_ = trace; }

  /// Alternative to set_trace at W >= 2 workers: RunTrace::set_phase is
  /// not thread-safe, so worker-owned nodes park their round's first phase
  /// declaration in this per-worker slot instead; the coordinator forwards
  /// it into the trace at the barrier. Ignored while a trace is attached.
  void set_phase_slot(std::optional<std::string>* slot) { phase_slot_ = slot; }

  /// Redirect violation recording (non-null, engine-owned). Snapshot resume
  /// and node recovery replay past rounds through a scratch sink — the
  /// restored FaultReport already carries those violations — then point the
  /// node back at the live report before handing it to the run loop.
  void set_violation_sink(std::vector<ProtocolViolation>* violations) {
    CSD_CHECK(violations != nullptr);
    violations_ = violations;
  }

  void begin_round(std::uint64_t r) {
    round_ = r;
    wake_hint_ = 0;
    round_payload_.reset();
    // Presence bytes only: the delivery pass already consumed this node's
    // outbox presence, but a crash/resume path may leave stragglers.
    if (degree_ > 0) std::memset(outbox_present_, 0, degree_);
  }
  void clear_inbox() {
    if (degree_ > 0) std::memset(inbox_present_, 0, degree_);
  }
  void deliver(std::uint32_t port, BitVec payload) {
    inbox_payload_[port].swap(payload);
    inbox_present_[port] = 1;
  }
  bool outbox_present(std::uint32_t port) const {
    return outbox_present_[port] != 0;
  }
  BitVec& outbox_payload(std::uint32_t port) { return outbox_payload_[port]; }
  void consume_outbox(std::uint32_t port) { outbox_present_[port] = 0; }
  void discard_outbox() {
    if (degree_ > 0) std::memset(outbox_present_, 0, degree_);
  }
  bool halted() const { return halted_; }
  /// The round this node asked to sleep until during its latest on_round
  /// call (NodeApi::sleep_until), or 0 for no hint. The synchronous round
  /// kernel reads it at every worker count; the async engine ignores it.
  std::uint64_t wake_hint() const { return wake_hint_; }
  Verdict verdict() const { return verdict_; }
  Vertex index() const { return index_; }

 private:
  void record_violation(ViolationKind kind, std::string detail) {
    violations_->push_back(
        {kind, static_cast<std::uint32_t>(index_), round_, std::move(detail)});
  }

  Vertex index_;
  std::uint32_t degree_;  // next to index_: no padding before id_
  NodeId id_;
  std::uint64_t network_size_;
  std::uint64_t namespace_size_;
  std::uint64_t bandwidth_;
  bool broadcast_only_;
  std::vector<ProtocolViolation>* violations_;
  const NodeId* neighbor_ids_;  // this node's row of topology.neighbor_ids
  obs::RunTrace* trace_ = nullptr;
  std::optional<std::string>* phase_slot_ = nullptr;
  Rng rng_;
  std::optional<BitVec> round_payload_;
  std::uint64_t round_ = 0;
  std::uint64_t wake_hint_ = 0;
  // Arena rows, engine-owned (attach_frames): payload buffers and presence
  // bytes are parallel arrays indexed by port.
  BitVec* inbox_payload_ = nullptr;
  std::uint8_t* inbox_present_ = nullptr;
  BitVec* outbox_payload_ = nullptr;
  std::uint8_t* outbox_present_ = nullptr;
  std::vector<BitVec> pool_;  // retired payload buffers (see scratch())
  bool halted_ = false;
  Verdict verdict_ = Verdict::Accept;
};

}  // namespace csd::congest::detail
