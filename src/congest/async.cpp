#include "congest/async.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>

#include "congest/event_queue.hpp"
#include "congest/node_state.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"
#include "support/mathutil.hpp"

namespace csd::congest {

namespace {

/// The reliable transport's wire parameters: TransportConfig's defaults.
/// config_digest() still mixes all four, so a checkpoint's digest does not
/// depend on their being fixed.
constexpr TransportConfig kTransport{};

/// Synchronizer bookkeeping per node.
struct SyncState {
  std::uint64_t pulse = 0;          // next pulse to execute
  std::uint64_t local_time = 0;     // virtual time the node last acted
  std::vector<std::deque<Frame>> arrived;  // per port
  std::vector<bool> port_dead;             // sender halted, nothing more
  bool running = true;   // false once halted, crashed, or cap-stopped
  bool crashed = false;  // fault-injected or program fault
  bool crash_done = false;        // scheduled crash already honored
  bool recovery_pending = false;  // a Recover event is in the queue
  std::uint32_t recoveries_used = 0;
};

/// The engine's counter rows (DESIGN.md §14): the run's own counts, then
/// its FaultReport's.
auto counts(const AsyncAccounting& outcome) {
  return [&outcome](auto&& row) {
    row("pulses", outcome.pulses);
    row("frames", outcome.frames);
    row("acks", outcome.acks);
    row("payload_bits", outcome.payload_bits);
    row("overhead_bits", outcome.overhead_bits);
    row("transport_bits", outcome.transport_bits);
    fault_rows(outcome.faults, row);
  };
}

class AsyncEngine {
 public:
  AsyncEngine(const Graph& topology, const AsyncConfig& config,
              std::vector<NodeId> ids, const ProgramFactory& factory)
      : topology_(detail::build_engine_topology(topology, std::move(ids),
                                                config.namespace_size)),
        config_(config),
        reliable_(config.transport == TransportMode::Reliable),
        factory_(&factory),
        delay_rng_(derive_seed(config.seed, 0xde1a)),
        base_rto_(kTransport.rto != 0 ? kTransport.rto
                                      : 2ULL * config.max_delay + 4),
        // Deliveries and acks land within max_delay ticks (plus FIFO slack)
        // and a packet's first two timers within 2 RTOs, so nearly every
        // event goes straight into a ring bucket.
        events_(saturating_add(config.max_delay,
                               saturating_mul(2, base_rto_))) {
    const Vertex n = topology_.num_vertices();
    CSD_CHECK(config_.max_delay >= 1);
    if (!config_.faults.empty())
      injector_.emplace(config_.faults, config_.seed, topology_.csr);
    rejoin_delay_ = config_.recovery.rejoin_delay != 0
                        ? config_.recovery.rejoin_delay
                        : saturating_mul(4, base_rto_);
    // Inbox logging powers both node recovery and checkpoint capture; it
    // copies delivered payloads and never consumes randomness, so enabling
    // it cannot change a single bit of the run (fuzzer-enforced).
    log_enabled_ =
        config_.recovery.enabled || config_.checkpoint_at_pulse != 0;
    if (log_enabled_) inbox_log_.resize(n);

    inbox_arena_ = detail::FrameArena(topology_.csr);
    outbox_arena_ = detail::FrameArena(topology_.csr);

    nodes_.reserve(n);
    programs_.reserve(n);
    sync_.resize(n);
    for (Vertex v = 0; v < n; ++v) {
      nodes_.push_back(std::make_unique<detail::NodeState>(
          topology_, v, config_.seed, config_.bandwidth,
          config_.broadcast_only, &outcome_.faults.violations));
      nodes_.back()->attach_frames(
          inbox_arena_.payload_row(v), inbox_arena_.present_row(v),
          outbox_arena_.payload_row(v), outbox_arena_.present_row(v));
      programs_.push_back(factory(v));
      CSD_CHECK(programs_.back() != nullptr);
      sync_[v].arrived.resize(topology_.degree(v));
      sync_[v].port_dead.assign(topology_.degree(v), false);
    }
    outcome_.trace = obs::RunTrace(n, config_.trace);
    if (outcome_.trace)
      for (Vertex v = 0; v < n; ++v) nodes_[v]->set_trace(&outcome_.trace);
    timing_ = config_.trace.timers;
    outcome_.timers.enabled = timing_;
    // FIFO watermark per directed link (indexed by src, src-port); acks on
    // the reverse link share its watermark with that link's data frames.
    link_watermark_.resize(n);
    for (Vertex v = 0; v < n; ++v)
      link_watermark_[v].assign(topology_.degree(v), 0);
    if (reliable_) {
      senders_.reserve(n);
      receivers_.reserve(n);
      for (Vertex v = 0; v < n; ++v) {
        senders_.emplace_back(topology_.degree(v), LinkSender(kTransport));
        receivers_.emplace_back(topology_.degree(v), LinkReceiver(kTransport));
      }
    }

    // csd-metrics-v2 instrumentation: handles registered once, write-only
    // afterwards. nullptr telemetry leaves every site a predicted branch.
    telemetry_ = config_.telemetry;
    if (telemetry_ != nullptr) {
      m_queue_depth_ = telemetry_->gauge("async_event_queue");
      m_payload_hist_ = telemetry_->histogram("async_frame_payload_bits");
    }
  }

  AsyncRunOutcome run() {
    plane_ = obs::RowPublisher(telemetry_, "async_", counts(outcome_));
    bootstrap();
    event_loop();
    return finalize();
  }

  AsyncRunOutcome resume(const Snapshot& snapshot) {
    restore(snapshot);
    // The plane's counts start from the restored totals.
    plane_ = obs::RowPublisher(telemetry_, "async_", counts(outcome_));
    // A terminal snapshot froze a run that had already ended; its queued
    // events are dead letters, so finalize the restored state directly.
    if (snapshot.async_state.terminal == 0) event_loop();
    return finalize();
  }

 private:
  void bootstrap() {
    // Pulse 0 runs immediately everywhere (empty inbox); degree-0 nodes
    // are always ready, so drive them to completion here — no event will
    // ever re-trigger them. Timing: program execution is measured inside
    // execute_pulse (compute_ns); the remainder of this loop — frame
    // assembly and event scheduling — is synchronizer work (delivery_ns).
    const auto started = timing_ ? Clock::now() : Clock::time_point{};
    const std::uint64_t compute_before = outcome_.timers.compute_ns;
    for (Vertex v = 0; v < topology_.num_vertices(); ++v) {
      execute_pulse(v);
      while (try_execute(v)) {
      }
    }
    if (timing_)
      add_delivery_time(started, compute_before, /*transport=*/false);
  }

  void event_loop() {
    while (!events_.empty()) {
      if (config_.checkpoint_at_pulse != 0 && outcome_.checkpoint == nullptr &&
          outcome_.pulses >= config_.checkpoint_at_pulse)
        capture_checkpoint();
      const std::uint64_t next = events_.next_time();
      // The plane gets each virtual-time tick's counts as the loop leaves it.
      if (telemetry_ != nullptr && next != published_tick_) {
        published_tick_ = next;
        plane_.publish(counts(outcome_));
      }
      // A deadline past the end of virtual time never fires.
      if (config_.stall_window != 0 &&
          next > saturating_add(last_progress_vt_,
                                saturating_mul(config_.stall_window,
                                               base_rto_))) {
        // No delivery or recovery for stall_window RTOs of virtual time:
        // cut the run instead of grinding through a dead event queue.
        outcome_.faults.watchdog_stalls = 1;
        if (telemetry_ != nullptr)
          telemetry_->record(obs::EventKind::WatchdogStall, 0, next,
                             next - last_progress_vt_);
        break;
      }
      EventRecord event = events_.pop();
      // Per-event timing: nested program execution is subtracted (it books
      // itself into compute_ns); the remainder is synchronizer/delivery
      // work for Data events and reliable-transport work for Ack/Timer.
      const auto started = timing_ ? Clock::now() : Clock::time_point{};
      const std::uint64_t compute_before = outcome_.timers.compute_ns;
      const EventRecord::Kind kind = event.kind;
      switch (kind) {
        case EventRecord::Kind::Data:
          outcome_.virtual_time = std::max(outcome_.virtual_time, event.time);
          last_progress_vt_ = std::max(last_progress_vt_, event.time);
          deliver_data(event);
          // Cascade: the delivery may have unblocked the destination.
          while (try_execute(event.dst)) {
          }
          break;
        case EventRecord::Kind::Ack:
          outcome_.virtual_time = std::max(outcome_.virtual_time, event.time);
          // A permanently crashed host's transport dies with it, but a
          // host with a pending recovery keeps its ARQ card: acks that
          // arrive while it is down still settle its in-flight packets.
          if ((!sync_[event.src].crashed ||
               sync_[event.src].recovery_pending) &&
              !senders_[event.src][event.src_port].on_ack(event.link_seq))
            ++outcome_.faults.duplicate_acks;
          break;
        case EventRecord::Kind::Timer:
          handle_timer(event);
          break;
        case EventRecord::Kind::Recover:
          last_progress_vt_ = std::max(last_progress_vt_, event.time);
          handle_recover(event);
          // A node that died at pulse 0 replayed an empty history; pulse 0
          // needs the same unconditional kick the bootstrap gives (ports
          // cannot be "ready" for it — there is no pulse -1 frame to wait
          // on). Later pulses cascade normally off the queued arrivals.
          if (sync_[event.src].pulse == 0 && sync_[event.src].running)
            execute_pulse(event.src);
          while (try_execute(event.src)) {
          }
          break;
      }
      if (timing_)
        add_delivery_time(started, compute_before,
                          kind == EventRecord::Kind::Ack ||
                              kind == EventRecord::Kind::Timer);
      if (stopped_count_ == topology_.num_vertices() &&
          pending_recoveries_ == 0)
        break;
      if (pulse_cap_hit_) break;
    }
    // The capture pulse may have been crossed inside the final event's
    // cascade (or right before a break above), after the loop-top check
    // last ran. Capture the end state rather than silently skipping — but
    // mark it terminal: any events still queued were abandoned by this run
    // (pulse cap, all-stopped, watchdog) and a resume must abandon them
    // too, not replay them.
    if (config_.checkpoint_at_pulse != 0 && outcome_.checkpoint == nullptr &&
        outcome_.pulses >= config_.checkpoint_at_pulse)
      capture_checkpoint(/*terminal=*/true);
  }

  AsyncRunOutcome finalize() {
    const Vertex n = topology_.num_vertices();
    outcome_.completed = halted_count_ == n;
    outcome_.verdicts.reserve(n);
    for (Vertex v = 0; v < n; ++v) {
      const auto& node = nodes_[v];
      outcome_.verdicts.push_back(node->verdict());
      if (node->verdict() == Verdict::Reject) outcome_.detected = true;
      if (!sync_[v].crashed && node->verdict() == Verdict::Reject)
        outcome_.faults.detected_by_survivors = true;
      if (!sync_[v].crashed && !node->halted())
        outcome_.faults.stalled_nodes.push_back(v);
    }
    plane_.publish(counts(outcome_));
    if (outcome_.trace) {
      // Pad quiet trailing pulses so the trace covers exactly
      // outcome_.pulses rounds — mirroring the synchronous engine, which
      // keeps fault-free traces byte-identical across the two.
      outcome_.trace.finish_run(outcome_.pulses);
      outcome_.trace.set_counters(fault_counters(outcome_.faults));
    }
    outcome_.trace_bytes = outcome_.trace.approx_bytes();
    return outcome_;
  }

 private:
  // ------------------------------------------------------------- timing --
  using Clock = std::chrono::steady_clock;

  static std::uint64_t elapsed_ns(Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  }

  /// Book the time since `started`, minus the program-compute time nested
  /// inside it (already self-booked into compute_ns), as delivery or
  /// transport work.
  void add_delivery_time(Clock::time_point started,
                         std::uint64_t compute_before, bool transport) {
    const std::uint64_t total = elapsed_ns(started);
    const std::uint64_t nested = outcome_.timers.compute_ns - compute_before;
    const std::uint64_t rest = total > nested ? total - nested : 0;
    if (transport)
      outcome_.timers.transport_ns += rest;
    else
      outcome_.timers.delivery_ns += rest;
  }

  // ----------------------------------------------------------- wire layer --
  std::uint64_t fresh_delay() {
    return 1 + delay_rng_.below(config_.max_delay);
  }

  void push_event(EventRecord event) {
    event.seq = next_event_seq_++;
    events_.push(std::move(event));
  }

  /// Apply link faults to a packet about to go on the wire. Returns false
  /// if the transmission is dropped; flips one bit on corruption. With
  /// FaultPlan::corrupt_headers the flipped bit is drawn over the frame
  /// header (pulse, then halted flag) as well as the payload; otherwise it
  /// targets the payload alone, so existing fault streams are unchanged.
  bool survive_faults(std::uint32_t src, std::uint32_t port,
                      DataPacket& packet) {
    if (!injector_.has_value()) return true;
    const std::uint64_t payload_bits = packet.frame.payload_bits();
    const std::uint64_t header_bits =
        config_.faults.corrupt_headers ? Frame::kPulseWireBits + 1 : 0;
    const auto fate = injector_->next_fate(
        src, port, static_cast<std::size_t>(header_bits + payload_bits));
    if (fate.dropped) {
      ++outcome_.faults.frames_dropped;
      if (telemetry_ != nullptr)
        telemetry_->record(obs::EventKind::FrameDropped, src,
                           packet.frame.pulse);
      return false;
    }
    if (fate.corrupted) {
      ++outcome_.faults.frames_corrupted;
      if (telemetry_ != nullptr)
        telemetry_->record(obs::EventKind::FrameCorrupted, src,
                           packet.frame.pulse);
      const std::uint64_t bit = fate.corrupt_bit;
      if (bit < header_bits) {
        if (bit < Frame::kPulseWireBits)
          packet.frame.pulse ^= 1ULL << bit;
        else
          packet.frame.sender_halted = !packet.frame.sender_halted;
      } else {
        packet.frame.payload->flip(
            static_cast<std::size_t>(bit - header_bits));
      }
    }
    return true;
  }

  /// Schedule the arrival of `packet` on the directed link (src, port) for
  /// a transmission happening at `now`. FIFO watermark per link.
  void transmit(std::uint32_t src, std::uint32_t port, DataPacket packet,
                std::uint64_t now) {
    if (!survive_faults(src, port, packet)) return;
    std::uint64_t when = now + fresh_delay();
    when = std::max(when, link_watermark_[src][port] + 1);
    link_watermark_[src][port] = when;
    EventRecord event;
    event.time = when;
    event.kind = EventRecord::Kind::Data;
    event.src = src;
    event.src_port = port;
    event.dst = topology_.csr.row(src)[port];
    event.dst_port = topology_.rev_port[topology_.csr.offsets[src] + port];
    event.link_seq = packet.seq;
    event.packet = std::move(packet);
    push_event(std::move(event));
  }

  void arm_timer(std::uint32_t src, std::uint32_t port, std::uint64_t seq,
                 std::uint64_t now) {
    EventRecord event;
    event.time = now + senders_[src][port].timeout_for(seq, base_rto_);
    event.kind = EventRecord::Kind::Timer;
    event.src = src;
    event.src_port = port;
    event.link_seq = seq;
    push_event(std::move(event));
  }

  void send_ack(std::uint32_t dst, std::uint32_t dst_port, std::uint64_t seq,
                std::uint64_t now, std::uint32_t data_src,
                std::uint32_t data_src_port) {
    ++outcome_.acks;
    outcome_.transport_bits += kTransport.seq_bits + kTransport.crc_bits;
    // The ack travels on the reverse directed link (dst, dst_port) and is
    // subject to the same drop process; it carries no payload, so the
    // corruption draw never fires (CRC-protected header abstracted away).
    if (injector_.has_value()) {
      const auto fate = injector_->next_fate(dst, dst_port, 0);
      if (fate.dropped) {
        ++outcome_.faults.frames_dropped;
        if (telemetry_ != nullptr)
          telemetry_->record(obs::EventKind::FrameDropped, dst, now);
        return;
      }
    }
    std::uint64_t when = now + fresh_delay();
    when = std::max(when, link_watermark_[dst][dst_port] + 1);
    link_watermark_[dst][dst_port] = when;
    EventRecord event;
    event.time = when;
    event.kind = EventRecord::Kind::Ack;
    event.src = data_src;  // the node whose sender awaits this ack
    event.src_port = data_src_port;
    event.link_seq = seq;
    push_event(std::move(event));
  }

  /// Takes the packet out of `event`.
  void deliver_data(EventRecord& event) {
    // A permanently dead host neither acks nor buffers: its packets fall
    // into the void and the senders' retry budgets eventually give up —
    // mirroring handle_timer, where a permanent crash kills the transport
    // too. A host with a *pending* recovery keeps receiving: its ARQ card
    // and arrival queues survive the outage, and the replica drains the
    // backlog after the rejoin.
    const auto& dst_sync = sync_[event.dst];
    if (dst_sync.crashed && !dst_sync.recovery_pending) return;
    if (reliable_) {
      receivers_[event.dst][event.dst_port].on_data(std::move(event.packet),
                                                    accept_);
      if (accept_.checksum_reject) {
        ++outcome_.faults.checksum_rejects;
        if (telemetry_ != nullptr)
          telemetry_->record(obs::EventKind::ChecksumReject, event.dst,
                             event.time);
        return;
      }
      if (accept_.send_ack)
        send_ack(event.dst, event.dst_port, accept_.ack_seq, event.time,
                 event.src, event.src_port);
      if (accept_.duplicate) {
        ++outcome_.faults.duplicate_packets;
        return;
      }
      for (Frame& frame : accept_.deliver)
        deliver_frame(event.dst, event.dst_port, std::move(frame), event.time);
    } else {
      deliver_frame(event.dst, event.dst_port, std::move(event.packet.frame),
                    event.time);
    }
  }

  void deliver_frame(std::uint32_t dst, std::uint32_t port, Frame frame,
                     std::uint64_t time) {
    auto& sync = sync_[dst];
    if (frame.sender_halted) sync.port_dead[port] = true;  // after this frame
    sync.arrived[port].push_back(std::move(frame));
    sync.local_time = std::max(sync.local_time, time);
  }

  /// May re-queue `event` itself (timer parking).
  void handle_timer(EventRecord& event) {
    if (sync_[event.src].crashed) {
      if (sync_[event.src].recovery_pending) {
        // Timer parking: the host is down but scheduled to rejoin. Re-arm
        // the raw event one RTO out without consulting the sender (whose
        // attempt counter must not advance while the host is dead), so the
        // retransmission conversation resumes after the rejoin instead of
        // being abandoned.
        event.time += base_rto_;
        push_event(std::move(event));
        return;
      }
      return;  // a permanent crash kills the transport too
    }
    auto& sender = senders_[event.src][event.src_port];
    switch (sender.on_timeout(event.link_seq)) {
      case LinkSender::TimeoutAction::Settled:
        return;
      case LinkSender::TimeoutAction::GiveUp:
        ++outcome_.faults.transport_failures;
        return;
      case LinkSender::TimeoutAction::Retransmit: {
        DataPacket packet = sender.retransmit_packet(event.link_seq);
        ++outcome_.faults.retransmissions;
        if (telemetry_ != nullptr)
          telemetry_->record(obs::EventKind::Retransmit, event.src, event.time,
                             event.link_seq);
        outcome_.transport_bits +=
            packet.frame.overhead_bits() + kTransport.seq_bits +
            packet.frame.payload_bits() + kTransport.crc_bits;
        transmit(event.src, event.src_port, std::move(packet), event.time);
        arm_timer(event.src, event.src_port, event.link_seq, event.time);
        return;
      }
    }
  }

  // ---------------------------------------------------------- synchronizer --
  /// Frame for the pulse dst is waiting on available (or the port is
  /// permanently dead with no buffered frames: the sender halted earlier)?
  /// Under raw faulty links a dropped frame leaves a pulse gap at the head
  /// of the queue — the port is then starved forever and the node stalls.
  bool port_ready(const SyncState& sync, std::uint32_t port) const {
    const auto& queue = sync.arrived[port];
    if (!queue.empty()) return queue.front().pulse + 1 == sync.pulse;
    return sync.port_dead[port];
  }

  bool try_execute(Vertex v) {
    auto& sync = sync_[v];
    if (!sync.running) return false;
    for (std::uint32_t p = 0; p < sync.arrived.size(); ++p)
      if (!port_ready(sync, p)) return false;
    execute_pulse(v);
    return true;
  }

  /// `recoverable` is true only for *scheduled* crashes: a program fault is
  /// a deterministic function of a delivered payload, so a restored replica
  /// would re-crash on the same input — recovery never applies to it.
  void crash_node(Vertex v, bool recoverable) {
    auto& sync = sync_[v];
    sync.running = false;
    sync.crashed = true;
    nodes_[v]->discard_outbox();
    outcome_.faults.crashed_nodes.push_back(v);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::NodeCrash, v, sync.pulse);
    ++stopped_count_;
    if (recoverable && config_.recovery.enabled &&
        sync.recoveries_used < config_.recovery.max_recoveries) {
      CSD_CHECK_MSG(rejoin_delay_ <= ~0ULL - sync.local_time,
                    "--rejoin-delay " << rejoin_delay_ << " puts node " << v
                        << "'s rejoin past the end of virtual time (it "
                           "crashed at time "
                        << sync.local_time << ")");
      ++sync.recoveries_used;
      sync.recovery_pending = true;
      ++pending_recoveries_;
      EventRecord event;
      event.time = sync.local_time + rejoin_delay_;
      event.kind = EventRecord::Kind::Recover;
      event.src = v;
      push_event(std::move(event));
    }
  }

  void execute_pulse(Vertex v) {
    auto& sync = sync_[v];
    auto& node = *nodes_[v];
    CSD_CHECK(sync.running);
    // crash_done: a recovered node must not be re-killed by the same
    // schedule entry on every subsequent pulse (the entry means "crash when
    // the pulse counter first reaches `when`", not "stay dead forever").
    if (injector_.has_value() && !sync.crash_done) {
      if (const auto when = injector_->crash_round(v);
          when.has_value() && sync.pulse >= *when) {
        sync.crash_done = true;
        crash_node(v, /*recoverable=*/true);
        return;
      }
    }
    if (sync.pulse >= config_.max_pulses) {
      pulse_cap_hit_ = true;
      sync.running = false;
      return;
    }

    // Assemble the inbox for this pulse (pulse 0 has none by construction).
    node.clear_inbox();
    if (sync.pulse > 0) {
      for (std::uint32_t p = 0; p < sync.arrived.size(); ++p) {
        if (sync.arrived[p].empty()) continue;  // dead port
        Frame frame = std::move(sync.arrived[p].front());
        sync.arrived[p].pop_front();
        CSD_CHECK_MSG(frame.pulse + 1 == sync.pulse,
                      "synchronizer frame out of order");
        if (frame.payload.has_value()) {
          if (logging_active())
            log_row(v, sync.pulse)[p] = *frame.payload;  // post-corruption
          node.deliver(p, std::move(*frame.payload));
        }
      }
    }

    node.begin_round(sync.pulse);
    bool program_fault = false;
    const auto invoke_program = [&] {
      if (injector_.has_value()) {
        // Graceful degradation under fault injection: a program that throws
        // (typically a wire decode of a corrupted payload) becomes a crashed
        // node, not a crashed process. Without faults, fail fast.
        try {
          programs_[v]->on_round(node);
        } catch (const CheckFailure& failure) {
          outcome_.faults.violations.push_back(
              {ViolationKind::ProgramFault, v, sync.pulse, failure.what()});
          program_fault = true;
        }
      } else {
        programs_[v]->on_round(node);
      }
    };
    if (timing_) {
      const auto started = Clock::now();
      invoke_program();
      outcome_.timers.compute_ns += elapsed_ns(started);
    } else {
      invoke_program();
    }
    if (program_fault) {
      if (telemetry_ != nullptr)
        telemetry_->record(obs::EventKind::Violation, v, sync.pulse);
      crash_node(v, /*recoverable=*/false);
      return;
    }
    outcome_.pulses = std::max(outcome_.pulses, sync.pulse + 1);

    // Emit this pulse's frames (exactly one per port), with jittered FIFO
    // delivery times; under the reliable transport each frame becomes a
    // sequenced, CRC-protected, retransmittable packet.
    const bool node_halted = node.halted();
    for (std::uint32_t p = 0; p < sync.arrived.size(); ++p) {
      Frame frame;
      frame.pulse = sync.pulse;
      frame.sender_halted = node_halted;
      if (node.outbox_present(p)) {
        // Move the payload buffer out of the arena slot into the frame; the
        // transport layer reads from the same buffer, no copy is made.
        frame.payload.emplace();
        std::swap(*frame.payload, node.outbox_payload(p));
        node.consume_outbox(p);
      }
      if (outcome_.trace && frame.payload.has_value())
        outcome_.trace.record(sync.pulse, v, topology_.csr.row(v)[p],
                              frame.payload_bits());
      outcome_.payload_bits += frame.payload_bits();
      outcome_.overhead_bits += frame.overhead_bits();
      ++outcome_.frames;
      if (telemetry_ != nullptr) {
        m_payload_hist_.observe(frame.payload_bits());
        m_queue_depth_.set(events_.size());
      }
      if (reliable_) {
        DataPacket packet = senders_[v][p].packet(std::move(frame));
        outcome_.transport_bits += kTransport.seq_bits + kTransport.crc_bits;
        const std::uint64_t seq = packet.seq;
        transmit(v, p, std::move(packet), sync.local_time);
        arm_timer(v, p, seq, sync.local_time);
      } else {
        DataPacket packet;
        packet.frame = std::move(frame);
        transmit(v, p, std::move(packet), sync.local_time);
      }
    }

    ++sync.pulse;
    if (node_halted) {
      sync.running = false;
      ++halted_count_;
      ++stopped_count_;
    }
  }

  // ----------------------------------------------------- recovery/snapshot --
  /// Logging stays on while it can still be consumed: always under a
  /// recovery policy, and until the checkpoint is captured otherwise.
  bool logging_active() const {
    return log_enabled_ &&
           (config_.recovery.enabled || outcome_.checkpoint == nullptr);
  }

  std::vector<std::optional<BitVec>>& log_row(Vertex v, std::uint64_t r) {
    auto& entries = inbox_log_[v];
    while (entries.size() <= r) entries.emplace_back(topology_.degree(v));
    return entries[r];
  }

  /// Replay pulses [0, pulses) of `log` through a fresh (node, program)
  /// pair: deliver the logged inbox, run the program, discard its sends.
  /// Programs are pure functions of (inbox history, seeded RNG draws), so
  /// this reconstructs internal state bit-exactly — the caller routes
  /// violations to a scratch sink and detaches the trace first, because
  /// everything observable was already reported when the history ran live.
  static void replay_history(detail::NodeState& node, NodeProgram& program,
                             const InboxLog& log, std::uint64_t pulses) {
    for (std::uint64_t r = 0; r < pulses; ++r) {
      node.clear_inbox();
      if (r < log.size())
        for (std::uint32_t p = 0; p < log[r].size(); ++p)
          if (log[r][p].has_value()) node.deliver(p, BitVec(*log[r][p]));
      node.begin_round(r);
      program.on_round(node);
    }
    node.discard_outbox();
  }

  void handle_recover(const EventRecord& event) {
    const Vertex v = event.src;
    auto& sync = sync_[v];
    CSD_CHECK(sync.crashed && sync.recovery_pending);
    sync.recovery_pending = false;
    --pending_recoveries_;
    // The rejoined host lost its memory: build a fresh replica and replay
    // its logged inbox history — the in-engine model of "restart the host,
    // restore its checkpoint". Frames that arrived while it was down are
    // still queued in sync.arrived (delivery never checks the destination's
    // crash flag), so the node picks up exactly where it died.
    std::vector<ProtocolViolation> scratch;
    auto node = std::make_unique<detail::NodeState>(
        topology_, v, config_.seed, config_.bandwidth, config_.broadcast_only,
        &scratch);
    auto program = (*factory_)(v);
    CSD_CHECK(program != nullptr);
    // The replica takes over the dead node's arena rows; replay clears them
    // pulse by pulse, so no stale frames leak into the rebuilt state.
    node->attach_frames(
        inbox_arena_.payload_row(v), inbox_arena_.present_row(v),
        outbox_arena_.payload_row(v), outbox_arena_.present_row(v));
    replay_history(*node, *program, inbox_log_[v], sync.pulse);
    outcome_.faults.replayed_pulses += sync.pulse;
    CSD_CHECK_MSG(!node->halted(), "replayed replica halted mid-history");
    node->set_violation_sink(&outcome_.faults.violations);
    if (outcome_.trace) node->set_trace(&outcome_.trace);
    nodes_[v] = std::move(node);
    programs_[v] = std::move(program);
    sync.crashed = false;
    sync.running = true;
    sync.local_time = std::max(sync.local_time, event.time);
    outcome_.faults.recovered_nodes.push_back(v);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::NodeRecover, v, event.time);
    if (outcome_.trace) outcome_.trace.set_phase(sync.pulse, "recover");
    --stopped_count_;
  }

  std::uint64_t config_digest() const {
    // Everything the continuation dynamics depend on. Deliberately excludes
    // checkpoint_at_pulse, stall_window, and trace options: a resumed run
    // may checkpoint at a different point or trace differently.
    std::uint64_t h = kDigestSeed;
    h = digest_mix(h, config_.bandwidth);
    h = digest_mix(h, config_.max_pulses);
    h = digest_mix(h, config_.namespace_size);
    h = digest_mix(h, config_.broadcast_only ? 1 : 0);
    h = digest_mix(h, config_.max_delay);
    h = digest_mix(h, static_cast<std::uint64_t>(config_.transport));
    h = digest_mix(h, kTransport.rto);
    h = digest_mix(h, kTransport.max_retries);
    h = digest_mix(h, kTransport.seq_bits);
    h = digest_mix(h, kTransport.crc_bits);
    h = digest_mix(h, config_.recovery.enabled ? 1 : 0);
    h = digest_mix(h, config_.recovery.rejoin_delay);
    h = digest_mix(h, config_.recovery.max_recoveries);
    h = digest_mix(h, fault_plan_digest(config_.faults));
    return h;
  }

  /// Freeze the complete engine between two scheduler events. Pure copies —
  /// no RNG consumed, no state mutated — so capture never perturbs the run.
  void capture_checkpoint(bool terminal = false) {
    auto snap = std::make_shared<Snapshot>();
    snap->kind = Snapshot::Kind::Async;
    AsyncSnapshot& s = snap->async_state;
    s.terminal = terminal ? 1 : 0;
    s.identity = {topology_digest(topology_.csr, topology_.ids),
                  config_digest(), config_.seed};
    const Vertex n = topology_.num_vertices();
    s.nodes.resize(n);
    for (Vertex v = 0; v < n; ++v) {
      const auto& sync = sync_[v];
      AsyncNodeSnapshot& ns = s.nodes[v];
      ns.pulse = sync.pulse;
      ns.local_time = sync.local_time;
      ns.arrived.resize(sync.arrived.size());
      for (std::uint32_t p = 0; p < sync.arrived.size(); ++p)
        ns.arrived[p].assign(sync.arrived[p].begin(), sync.arrived[p].end());
      ns.port_dead.assign(sync.port_dead.begin(), sync.port_dead.end());
      ns.running = sync.running ? 1 : 0;
      ns.crashed = sync.crashed ? 1 : 0;
      ns.halted = nodes_[v]->halted() ? 1 : 0;
      ns.crash_done = sync.crash_done ? 1 : 0;
      ns.recoveries_used = sync.recoveries_used;
      ns.inbox = inbox_log_[v];
      if (reliable_) {
        for (std::uint32_t p = 0; p < topology_.degree(v); ++p) {
          ns.senders.push_back(senders_[v][p].save_state());
          ns.receivers.push_back(receivers_[v][p].save_state());
        }
      }
      ns.link_watermark = link_watermark_[v];
    }
    s.events = events_.sorted();
    s.next_event_seq = next_event_seq_;
    s.delay_rng = delay_rng_.state();
    if (injector_.has_value()) s.fault_streams = injector_->save_streams();
    s.halted_count = halted_count_;
    s.stopped_count = stopped_count_;
    s.pending_recoveries = pending_recoveries_;
    static_cast<AsyncAccounting&>(s) = outcome_;
    outcome_.checkpoint = std::move(snap);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::CheckpointSave, 0, outcome_.pulses);
  }

  /// A snapshot's event list before replay: every node and port an event's
  /// kind makes the engine index must exist, with a Data event's far end
  /// the true end of its link, and the list must be what the queue pops —
  /// nothing before the snapshot's virtual time, (t, q) strictly ascending,
  /// every q below the next seq the engine hands out.
  void check_events(const AsyncSnapshot& s) const {
    const Vertex n = topology_.num_vertices();
    for (std::size_t i = 0; i < s.events.size(); ++i) {
      const EventRecord& e = s.events[i];
      const auto at = [i] { return "snapshot event " + std::to_string(i); };
      CSD_CHECK_MSG(e.src < n, at() << ": key 's' = " << e.src
                                    << " is not a node (the topology has "
                                    << n << ")");
      if (e.kind != EventRecord::Kind::Recover)
        CSD_CHECK_MSG(e.src_port < topology_.degree(e.src),
                      at() << ": key 'sp' = " << e.src_port
                           << " is not a port of node " << e.src
                           << " (degree " << topology_.degree(e.src) << ")");
      if (e.kind == EventRecord::Kind::Recover)
        CSD_CHECK_MSG(config_.recovery.enabled,
                      at() << ": key 'k': a recover event with crash "
                              "recovery off");
      else if (e.kind != EventRecord::Kind::Data)
        CSD_CHECK_MSG(reliable_, at() << ": key 'k': an ack or timer event "
                                         "under the raw transport");
      if (e.kind == EventRecord::Kind::Data) {
        const std::size_t edge = topology_.csr.offsets[e.src] + e.src_port;
        CSD_CHECK_MSG(e.dst == topology_.csr.row(e.src)[e.src_port],
                      at() << ": key 'd' = " << e.dst
                           << " is not the far end of node " << e.src
                           << "'s port " << e.src_port);
        CSD_CHECK_MSG(e.dst_port == topology_.rev_port[edge],
                      at() << ": key 'dp' = " << e.dst_port
                           << " is not the far port of node " << e.src
                           << "'s port " << e.src_port);
      }
      CSD_CHECK_MSG(e.time >= s.virtual_time,
                    at() << ": key 't' = " << e.time
                         << " precedes the snapshot's virtual_time "
                         << s.virtual_time);
      if (i > 0) {
        const EventRecord& prev = s.events[i - 1];
        CSD_CHECK_MSG(e.time >= prev.time,
                      at() << ": key 't' = " << e.time
                           << " precedes the previous event's " << prev.time);
        CSD_CHECK_MSG(e.time > prev.time || e.seq > prev.seq,
                      at() << ": key 'q' = " << e.seq
                           << " does not follow the previous event's "
                           << prev.seq << " at time " << e.time);
      }
      CSD_CHECK_MSG(e.seq < s.next_event_seq,
                    at() << ": key 'q' = " << e.seq
                         << " is not below next_event_seq "
                         << s.next_event_seq);
    }
  }

  void restore(const Snapshot& snapshot) {
    CSD_CHECK_MSG(snapshot.kind == Snapshot::Kind::Async,
                  "resume_async needs an async snapshot, got "
                      << to_string(snapshot.kind));
    const AsyncSnapshot& s = snapshot.async_state;
    const std::uint64_t digest = topology_digest(topology_.csr, topology_.ids);
    CSD_CHECK_MSG(s.identity.topology == digest,
                  "snapshot belongs to a different topology/identifier "
                  "assignment");
    CSD_CHECK_MSG(s.identity.config == config_digest(),
                  "snapshot belongs to a different engine configuration");
    CSD_CHECK_MSG(s.identity.seed == config_.seed,
                  "snapshot belongs to a different seed");
    const Vertex n = topology_.num_vertices();
    CSD_CHECK_MSG(s.nodes.size() == n, "snapshot node count mismatch");
    check_events(s);
    for (Vertex v = 0; v < n; ++v)
      check_inbox_log(s.nodes[v].inbox, v, topology_.degree(v));

    std::vector<ProtocolViolation> scratch;
    for (Vertex v = 0; v < n; ++v) {
      const AsyncNodeSnapshot& ns = s.nodes[v];
      auto& sync = sync_[v];
      const std::uint32_t deg = topology_.degree(v);
      CSD_CHECK_MSG(ns.arrived.size() == deg && ns.port_dead.size() == deg &&
                        ns.link_watermark.size() == deg,
                    "snapshot degree mismatch at node " << v);
      sync.pulse = ns.pulse;
      sync.local_time = ns.local_time;
      for (std::uint32_t p = 0; p < deg; ++p) {
        sync.arrived[p].assign(ns.arrived[p].begin(), ns.arrived[p].end());
        sync.port_dead[p] = ns.port_dead[p] != 0;
      }
      sync.running = ns.running != 0;
      sync.crashed = ns.crashed != 0;
      sync.crash_done = ns.crash_done != 0;
      sync.recoveries_used = ns.recoveries_used;
      if (log_enabled_) inbox_log_[v] = ns.inbox;
      if (reliable_) {
        CSD_CHECK_MSG(ns.senders.size() == deg && ns.receivers.size() == deg,
                      "snapshot transport state mismatch at node " << v);
        for (std::uint32_t p = 0; p < deg; ++p) {
          senders_[v][p].restore_state(ns.senders[p]);
          receivers_[v][p].restore_state(ns.receivers[p]);
        }
      }
      link_watermark_[v] = ns.link_watermark;
      if (!sync.crashed) {
        // Reconstruct the program by replay. Crashed nodes are skipped: a
        // permanently dead program never runs again, and a pending recovery
        // builds its own fresh replica from the log when its Recover event
        // fires.
        nodes_[v]->set_violation_sink(&scratch);
        nodes_[v]->set_trace(nullptr);
        replay_history(*nodes_[v], *programs_[v], ns.inbox, sync.pulse);
        CSD_CHECK_MSG(nodes_[v]->halted() == (ns.halted != 0),
                      "resume replay diverged: node " << v << " halt state");
        nodes_[v]->set_violation_sink(&outcome_.faults.violations);
        if (outcome_.trace) nodes_[v]->set_trace(&outcome_.trace);
      }
    }
    for (const EventRecord& event : s.events) events_.push(EventRecord(event));
    next_event_seq_ = s.next_event_seq;
    delay_rng_.set_state(s.delay_rng);
    if (injector_.has_value()) injector_->restore_streams(s.fault_streams);
    halted_count_ = s.halted_count;
    stopped_count_ = s.stopped_count;
    pending_recoveries_ = s.pending_recoveries;
    Vertex pending = 0;
    for (const EventRecord& event : s.events)
      if (event.kind == EventRecord::Kind::Recover) {
        sync_[event.src].recovery_pending = true;
        ++pending;
      }
    CSD_CHECK_MSG(pending == pending_recoveries_,
                  "snapshot recovery bookkeeping inconsistent");
    static_cast<AsyncAccounting&>(outcome_) = s;
    last_progress_vt_ = s.virtual_time;
  }

  const detail::EngineTopology topology_;
  AsyncConfig config_;
  bool reliable_;
  const ProgramFactory* factory_;  // outlives the engine (recovery replicas)
  Rng delay_rng_;
  std::optional<FaultInjector> injector_;
  std::uint64_t base_rto_ = 0;
  std::uint64_t rejoin_delay_ = 0;
  bool log_enabled_ = false;
  std::vector<InboxLog> inbox_log_;
  Vertex pending_recoveries_ = 0;
  std::uint64_t last_progress_vt_ = 0;
  /// Per-run frame plane; nodes (and recovery replicas) hold row pointers.
  detail::FrameArena inbox_arena_;
  detail::FrameArena outbox_arena_;
  std::vector<std::vector<std::uint64_t>> link_watermark_;
  std::vector<std::unique_ptr<detail::NodeState>> nodes_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<SyncState> sync_;
  std::vector<std::vector<LinkSender>> senders_;      // reliable mode only
  std::vector<std::vector<LinkReceiver>> receivers_;  // reliable mode only
  detail::EventQueue events_;
  LinkReceiver::Accept accept_;  // reused by every reliable delivery
  std::uint64_t next_event_seq_ = 0;
  Vertex halted_count_ = 0;   // gracefully halted
  Vertex stopped_count_ = 0;  // halted or crashed
  bool pulse_cap_hit_ = false;
  bool timing_ = false;
  // csd-metrics-v2 plane (non-owning; nullptr = every site inert).
  obs::Telemetry* telemetry_ = nullptr;
  obs::RowPublisher plane_;  // counts(outcome_)
  std::uint64_t published_tick_ = 0;
  obs::Gauge m_queue_depth_;
  obs::Histogram m_payload_hist_;
  AsyncRunOutcome outcome_;
};

}  // namespace

AsyncRunOutcome run_async(const Graph& topology, const AsyncConfig& config,
                          std::vector<NodeId> ids,
                          const ProgramFactory& factory) {
  AsyncEngine engine(topology, config, std::move(ids), factory);
  return engine.run();
}

AsyncRunOutcome run_async(const Graph& topology, const AsyncConfig& config,
                          const ProgramFactory& factory) {
  return run_async(topology, config, detail::index_ids(topology.num_vertices()),
                   factory);
}

AsyncRunOutcome resume_async(const Graph& topology, const AsyncConfig& config,
                             std::vector<NodeId> ids,
                             const ProgramFactory& factory,
                             const Snapshot& snapshot) {
  AsyncEngine engine(topology, config, std::move(ids), factory);
  return engine.resume(snapshot);
}

AsyncRunOutcome resume_async(const Graph& topology, const AsyncConfig& config,
                             const ProgramFactory& factory,
                             const Snapshot& snapshot) {
  return resume_async(topology, config,
                      detail::index_ids(topology.num_vertices()), factory,
                      snapshot);
}

}  // namespace csd::congest
