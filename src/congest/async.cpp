#include "congest/async.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>

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
        arena_(topology_.csr.num_directed_edges()),
        inbox_(topology_.csr.num_directed_edges()),
        node_(topology_, config.bandwidth, config.broadcast_only, records_,
              arena_, arena_, inbox_, &outcome_.faults.violations),
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

    outcome_.trace = obs::RunTrace(n, config_.trace);
    if (outcome_.trace) node_.set_trace(&outcome_.trace);
    records_.reset(n, config_.seed);
    programs_.resize(n);
    hosts_.resize(n);
    for (Vertex v = 0; v < n; ++v) {
      build_node(v);
      AsyncNodeState& host = hosts_[v];
      const std::uint32_t degree = topology_.degree(v);
      host.arrived.resize(degree);
      host.port_dead.assign(degree, 0);
      host.link_watermark.assign(degree, 0);
      // Default endpoints carry kTransport; raw links have none.
      host.senders.resize(reliable_ ? degree : 0);
      host.receivers.resize(reliable_ ? degree : 0);
    }
    timing_ = config_.trace.timers;
    outcome_.timers.enabled = timing_;

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
          if ((!hosts_[event.src].crashed ||
               hosts_[event.src].recovery_pending) &&
              !hosts_[event.src].senders[event.src_port].on_ack(
                  event.link_seq))
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
          if (hosts_[event.src].pulse == 0 && hosts_[event.src].running)
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
    outcome_.verdicts = records_.verdicts;
    for (Vertex v = 0; v < n; ++v) {
      const bool rejected = records_.verdicts[v] == Verdict::Reject;
      if (rejected) outcome_.detected = true;
      if (!hosts_[v].crashed && rejected)
        outcome_.faults.detected_by_survivors = true;
      if (!hosts_[v].crashed && records_.halted[v] == 0)
        outcome_.faults.stalled_nodes.push_back(v);
    }
    plane_.publish(counts(outcome_));
    if (outcome_.trace) {
      // Pad quiet trailing pulses so the trace covers exactly
      // outcome_.pulses rounds — mirroring the synchronous engine, which
      // keeps fault-free traces byte-identical across the two.
      outcome_.trace.finish_run(outcome_.pulses);
      fault_rows(outcome_.faults,
                 [&](std::string_view name, std::uint64_t value) {
                   outcome_.trace.add_counter(name, value);
                 });
    }
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
    std::uint64_t& watermark = hosts_[src].link_watermark[port];
    const std::uint64_t when = std::max(now + fresh_delay(), watermark + 1);
    watermark = when;
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
    event.time = now + hosts_[src].senders[port].timeout_for(seq, base_rto_);
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
    std::uint64_t& watermark = hosts_[dst].link_watermark[dst_port];
    const std::uint64_t when = std::max(now + fresh_delay(), watermark + 1);
    watermark = when;
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
    AsyncNodeState& dst = hosts_[event.dst];
    if (dst.crashed && !dst.recovery_pending) return;
    if (reliable_) {
      dst.receivers[event.dst_port].on_data(std::move(event.packet), accept_);
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
    AsyncNodeState& host = hosts_[dst];
    if (frame.sender_halted) host.port_dead[port] = 1;  // after this frame
    host.arrived[port].push_back(std::move(frame));
    host.local_time = std::max(host.local_time, time);
  }

  /// May re-queue `event` itself (timer parking).
  void handle_timer(EventRecord& event) {
    AsyncNodeState& host = hosts_[event.src];
    if (host.crashed) {
      if (host.recovery_pending) {
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
    LinkSender& sender = host.senders[event.src_port];
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
  /// Runs v's next pulse if every port holds the frame it waits on or is
  /// permanently dead with no buffered frames (the sender halted earlier).
  /// Under raw faulty links a dropped frame leaves a pulse gap at the head
  /// of a queue — the port is then starved forever and the node stalls.
  bool try_execute(Vertex v) {
    const AsyncNodeState& host = hosts_[v];
    if (!host.running) return false;
    for (std::uint32_t p = 0; p < host.arrived.size(); ++p) {
      const auto& queue = host.arrived[p];
      if (queue.empty() ? host.port_dead[p] == 0
                        : queue.front().pulse + 1 != host.pulse)
        return false;
    }
    execute_pulse(v);
    return true;
  }

  /// `recoverable` is true only for *scheduled* crashes: a program fault is
  /// a deterministic function of a delivered payload, so a restored replica
  /// would re-crash on the same input — recovery never applies to it.
  void crash_node(Vertex v, bool recoverable) {
    AsyncNodeState& host = hosts_[v];
    host.running = 0;
    host.crashed = 1;
    arena_.clear_row(topology_.csr.offsets[v], topology_.degree(v));
    outcome_.faults.crashed_nodes.push_back(v);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::NodeCrash, v, host.pulse);
    ++stopped_count_;
    if (recoverable && config_.recovery.enabled &&
        host.recoveries_used < config_.recovery.max_recoveries) {
      CSD_CHECK_MSG(rejoin_delay_ <= ~0ULL - host.local_time,
                    "--rejoin-delay " << rejoin_delay_ << " puts node " << v
                        << "'s rejoin past the end of virtual time (it "
                           "crashed at time "
                        << host.local_time << ")");
      ++host.recoveries_used;
      host.recovery_pending = true;
      ++pending_recoveries_;
      EventRecord event;
      event.time = host.local_time + rejoin_delay_;
      event.kind = EventRecord::Kind::Recover;
      event.src = v;
      push_event(std::move(event));
    }
  }

  void execute_pulse(Vertex v) {
    AsyncNodeState& host = hosts_[v];
    CSD_CHECK(host.running);
    // crash_done: a recovered node must not be re-killed by the same
    // schedule entry on every subsequent pulse (the entry means "crash when
    // the pulse counter first reaches `when`", not "stay dead forever").
    if (injector_.has_value() && !host.crash_done) {
      if (const auto when = injector_->crash_round(v);
          when.has_value() && host.pulse >= *when) {
        host.crash_done = 1;
        crash_node(v, /*recoverable=*/true);
        return;
      }
    }
    if (host.pulse >= config_.max_pulses) {
      pulse_cap_hit_ = true;
      host.running = 0;
      return;
    }

    // Assemble the inbox for this pulse (pulse 0 has none by construction).
    node_.bind(v);
    node_.clear_inbox();
    if (host.pulse > 0) {
      for (std::uint32_t p = 0; p < host.arrived.size(); ++p) {
        if (host.arrived[p].empty()) continue;  // dead port
        Frame frame = std::move(host.arrived[p].front());
        host.arrived[p].pop_front();
        CSD_CHECK_MSG(frame.pulse + 1 == host.pulse,
                      "synchronizer frame out of order");
        if (frame.payload.has_value()) {
          if (logging_active())
            log_row(v, host.pulse)[p] = *frame.payload;  // post-corruption
          node_.deliver(p, std::move(*frame.payload));
        }
      }
    }

    node_.begin_round(host.pulse);
    bool program_fault = false;
    const auto invoke_program = [&] {
      if (injector_.has_value()) {
        // Graceful degradation under fault injection: a program that throws
        // (typically a wire decode of a corrupted payload) becomes a crashed
        // node, not a crashed process. Without faults, fail fast.
        try {
          programs_[v]->on_round(node_);
        } catch (const CheckFailure& failure) {
          outcome_.faults.violations.push_back(
              {ViolationKind::ProgramFault, v, host.pulse, failure.what()});
          program_fault = true;
        }
      } else {
        programs_[v]->on_round(node_);
      }
    };
    if (timing_) {
      const auto started = Clock::now();
      invoke_program();
      outcome_.timers.compute_ns += elapsed_ns(started);
    } else {
      invoke_program();
    }
    const bool node_halted = records_.halted[v] != 0;
    if (program_fault) {
      if (telemetry_ != nullptr)
        telemetry_->record(obs::EventKind::Violation, v, host.pulse);
      crash_node(v, /*recoverable=*/false);
      return;
    }
    outcome_.pulses = std::max(outcome_.pulses, host.pulse + 1);

    // Emit this pulse's frames (exactly one per port), with jittered FIFO
    // delivery times; under the reliable transport each frame becomes a
    // sequenced, CRC-protected, retransmittable packet.
    for (std::uint32_t p = 0; p < host.arrived.size(); ++p) {
      Frame frame;
      frame.pulse = host.pulse;
      frame.sender_halted = node_halted;
      if (node_.outbox_present(p)) {
        // Move the payload buffer out of the arena slot into the frame; the
        // transport layer reads from the same buffer, no copy is made.
        frame.payload.emplace();
        frame.payload->swap(node_.outbox_payload(p));
        node_.consume_outbox(p);
      }
      if (outcome_.trace && frame.payload.has_value())
        outcome_.trace.record(host.pulse, v, topology_.csr.row(v)[p],
                              frame.payload_bits());
      outcome_.payload_bits += frame.payload_bits();
      outcome_.overhead_bits += frame.overhead_bits();
      ++outcome_.frames;
      if (telemetry_ != nullptr) {
        m_payload_hist_.observe(frame.payload_bits());
        m_queue_depth_.set(events_.size());
      }
      if (reliable_) {
        DataPacket packet = host.senders[p].packet(std::move(frame));
        outcome_.transport_bits += kTransport.seq_bits + kTransport.crc_bits;
        const std::uint64_t seq = packet.seq;
        transmit(v, p, std::move(packet), host.local_time);
        arm_timer(v, p, seq, host.local_time);
      } else {
        DataPacket packet;
        packet.frame = std::move(frame);
        transmit(v, p, std::move(packet), host.local_time);
      }
    }

    ++host.pulse;
    if (node_halted) {
      host.running = 0;
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
    auto& entries = hosts_[v].inbox;
    while (entries.size() <= r) entries.emplace_back(topology_.degree(v));
    return entries[r];
  }

  /// A fresh program for v on fresh node records.
  void build_node(Vertex v) {
    records_.reset_node(v, config_.seed);
    programs_[v] = (*factory_)(v);
    CSD_CHECK(programs_[v] != nullptr);
  }

  /// Replay pulses [0, pulse) of v's inbox log through its freshly built
  /// program and records: deliver the logged inbox, run the program,
  /// discard its sends. Programs are pure functions of (inbox history,
  /// seeded RNG draws), so this reconstructs internal state bit-exactly.
  /// Violations go to a scratch sink and the trace is detached meanwhile:
  /// everything observable was already reported when the history ran live.
  void replay(Vertex v) {
    const InboxLog& log = hosts_[v].inbox;
    std::vector<ProtocolViolation> scratch;
    node_.set_violation_sink(&scratch);
    node_.set_trace(nullptr);
    node_.bind(v);
    for (std::uint64_t r = 0; r < hosts_[v].pulse; ++r) {
      node_.clear_inbox();
      if (r < log.size())
        for (std::uint32_t p = 0; p < log[r].size(); ++p)
          if (log[r][p].has_value()) node_.deliver(p, BitVec(*log[r][p]));
      node_.begin_round(r);
      programs_[v]->on_round(node_);
    }
    node_.discard_outbox();
    node_.set_violation_sink(&outcome_.faults.violations);
    if (outcome_.trace) node_.set_trace(&outcome_.trace);
  }

  void handle_recover(const EventRecord& event) {
    const Vertex v = event.src;
    AsyncNodeState& host = hosts_[v];
    CSD_CHECK(host.crashed && host.recovery_pending);
    host.recovery_pending = false;
    --pending_recoveries_;
    // The rejoined host lost its memory: build a fresh replica and replay
    // its logged inbox history — the in-engine model of "restart the host,
    // restore its checkpoint". Frames that arrived while it was down are
    // still queued in host.arrived (delivery keeps a recovering host's
    // queues), so the node picks up exactly where it died. The replica
    // takes over the dead node's arena rows; replay clears them pulse by
    // pulse, so no stale frames leak into the rebuilt state.
    build_node(v);
    replay(v);
    outcome_.faults.replayed_pulses += host.pulse;
    CSD_CHECK_MSG(records_.halted[v] == 0,
                  "replayed replica halted mid-history");
    host.crashed = 0;
    host.running = 1;
    host.local_time = std::max(host.local_time, event.time);
    outcome_.faults.recovered_nodes.push_back(v);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::NodeRecover, v, event.time);
    if (outcome_.trace) outcome_.trace.set_phase(host.pulse, "recover");
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
    s.nodes = hosts_;
    s.halted = records_.halted;
    s.verdicts = records_.verdicts;
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
  /// every q below the next seq the engine hands out. Under the reliable
  /// transport a Data, Ack or Timer event names a seq below its sender's
  /// next_seq, and a Data event's packet carries that seq. Needs the node
  /// records checked first.
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
      if (reliable_ && e.kind != EventRecord::Kind::Recover) {
        const std::uint64_t next = s.nodes[e.src].senders[e.src_port].next_seq;
        CSD_CHECK_MSG(e.link_seq < next && (e.kind != EventRecord::Kind::Data ||
                                            e.packet.seq == e.link_seq),
                      at() << ": key 'ls' = " << e.link_seq
                           << " is not below its sender's next_seq " << next
                           << ", or not its packet's 'ps'");
      }
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

  /// A snapshot's node record before replay: one entry per port in each
  /// per-port list (ARQ endpoints under the reliable transport only), and
  /// endpoint lists in the order their sorted storage relies on: pending
  /// seqs strictly ascending below next_seq, each sent at least once and at
  /// most once past the retry budget (on_timeout gives up then), and
  /// reorder seqs strictly ascending above next_expected (a frame at
  /// next_expected is never released: its packet counts as a duplicate).
  void check_node(const AsyncNodeState& host, Vertex v) const {
    const std::uint32_t deg = topology_.degree(v);
    const std::uint32_t ports = reliable_ ? deg : 0;
    for (std::size_t r = 0; r < host.inbox.size(); ++r)
      CSD_CHECK_MSG(host.inbox[r].size() == deg,
                    "snapshot node " << v << ": key 'inbox' row " << r
                                     << " has " << host.inbox[r].size()
                                     << " entries, not " << deg);
    CSD_CHECK_MSG(host.arrived.size() == deg && host.port_dead.size() == deg &&
                      host.link_watermark.size() == deg &&
                      host.senders.size() == ports &&
                      host.receivers.size() == ports,
                  "snapshot node " << v
                                   << ": keys 'arrived' to 'link_watermark' "
                                      "want an entry per port (no endpoints "
                                      "under the raw transport)");
    const auto unordered = [](const auto& a, const auto& b) {
      return a.seq >= b.seq;
    };
    for (std::uint32_t p = 0; p < ports; ++p) {
      const LinkSender& sender = host.senders[p];
      const auto& pending = sender.pending;
      const LinkReceiver& receiver = host.receivers[p];
      const auto& reorder = receiver.reorder;
      const std::string at =
          "snapshot node " + std::to_string(v) + " port " + std::to_string(p);
      CSD_CHECK_MSG(
          std::adjacent_find(pending.begin(), pending.end(), unordered) ==
                  pending.end() &&
              (pending.empty() || pending.back().seq < sender.next_seq),
          at << ": key 'pending' is not strictly ascending by seq below "
                "next_seq " << sender.next_seq);
      for (const LinkSender::Unacked& entry : pending)
        CSD_CHECK_MSG(entry.attempts >= 1 &&
                          entry.attempts <= kTransport.max_retries + 1,
                      at << ": key 'attempts' = " << entry.attempts
                         << " is not in [1, " << kTransport.max_retries + 1
                         << "]");
      CSD_CHECK_MSG(
          std::adjacent_find(reorder.begin(), reorder.end(), unordered) ==
                  reorder.end() &&
              (reorder.empty() || reorder.front().seq > receiver.expected),
          at << ": key 'reorder' is not strictly ascending by seq above "
                "next_expected " << receiver.expected);
    }
  }

  /// Under the reliable transport, each packet a host awaits an ack for is
  /// named by exactly one Timer event, the one that retransmits it. A
  /// permanently crashed host dropped its timers, so its packets are exempt;
  /// a recovering host's are parked, so they count. An acknowledged
  /// packet's Timer stays queued until it fires.
  void check_timers(const std::vector<EventRecord>& events) const {
    std::vector<std::tuple<Vertex, std::uint32_t, std::uint64_t>> timers;
    for (const EventRecord& e : events)
      if (e.kind == EventRecord::Kind::Timer)
        timers.emplace_back(e.src, e.src_port, e.link_seq);
    std::sort(timers.begin(), timers.end());
    for (Vertex v = 0; v < hosts_.size(); ++v)
      for (std::uint32_t p = 0; p < hosts_[v].senders.size(); ++p)
        for (const LinkSender::Unacked& entry : hosts_[v].senders[p].pending) {
          const auto [first, last] = std::equal_range(
              timers.begin(), timers.end(), std::tuple{v, p, entry.seq});
          CSD_CHECK_MSG(
              last - first == 1 ||
                  (hosts_[v].crashed && !hosts_[v].recovery_pending),
              "snapshot node " << v << " port " << p << ": key 'pending' seq "
                               << entry.seq << " is named by " << last - first
                               << " timer events, not 1");
        }
  }

  /// A snapshot's node records and the counts saved beside them: an entry
  /// per node in `halted` and `verdicts`, `halted_count` the nodes halted
  /// and not crashed, `stopped_count` the nodes halted or crashed.
  void check_records(const AsyncSnapshot& s) const {
    const Vertex n = topology_.num_vertices();
    CSD_CHECK_MSG(s.halted.size() == n && s.verdicts.size() == n,
                  "key 'halted' or 'verdicts' does not hold "
                      << n << " entries, one per node");
    Vertex halted = 0, stopped = 0;
    for (Vertex v = 0; v < n; ++v) {
      const bool crashed = s.nodes[v].crashed != 0;
      halted += s.halted[v] != 0 && !crashed;
      stopped += s.halted[v] != 0 || crashed;
    }
    CSD_CHECK_MSG(s.halted_count == halted,
                  "key 'halted_count' = " << s.halted_count << " but "
                                          << halted
                                          << " node(s) are halted and not "
                                             "crashed");
    CSD_CHECK_MSG(s.stopped_count == stopped,
                  "key 'stopped_count' = " << s.stopped_count << " but "
                                           << stopped
                                           << " node(s) are halted or crashed");
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
    for (Vertex v = 0; v < n; ++v) check_node(s.nodes[v], v);
    check_records(s);
    check_events(s);

    hosts_ = s.nodes;
    // A queued Recover event marks its host's pending recovery; the flag is
    // derived, not saved.
    for (AsyncNodeState& host : hosts_) host.recovery_pending = false;
    Vertex pending = 0;
    for (const EventRecord& event : s.events)
      if (event.kind == EventRecord::Kind::Recover) {
        hosts_[event.src].recovery_pending = true;
        ++pending;
      }
    CSD_CHECK_MSG(pending == s.pending_recoveries,
                  "key 'pending_recoveries' = " << s.pending_recoveries
                                                << " but the events hold "
                                                << pending
                                                << " recover events");
    if (reliable_) check_timers(s.events);
    for (Vertex v = 0; v < n; ++v) {
      AsyncNodeState& host = hosts_[v];
      if (!host.crashed) {
        // Reconstruct the program by replay. Crashed nodes are skipped: a
        // permanently dead program never runs again, and a pending recovery
        // builds its own fresh replica from the log when its Recover event
        // fires.
        replay(v);
        CSD_CHECK_MSG(records_.halted[v] == s.halted[v],
                      "snapshot node " << v
                                       << ": key 'halted' disagrees with "
                                          "its replay");
        CSD_CHECK_MSG(records_.verdicts[v] == s.verdicts[v],
                      "snapshot node " << v
                                       << ": key 'verdicts' disagrees with "
                                          "its replay");
      }
      if (!log_enabled_) host.inbox = {};  // nothing logs or replays it
    }
    // The crashed nodes keep their saved records: a node that rejected and
    // then crashed for good still rejected.
    records_.halted = s.halted;
    records_.verdicts = s.verdicts;
    for (const EventRecord& event : s.events) events_.push(EventRecord(event));
    next_event_seq_ = s.next_event_seq;
    delay_rng_.set_state(s.delay_rng);
    if (injector_.has_value()) injector_->restore_streams(s.fault_streams);
    halted_count_ = s.halted_count;
    stopped_count_ = s.stopped_count;
    pending_recoveries_ = s.pending_recoveries;
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
  Vertex pending_recoveries_ = 0;
  std::uint64_t last_progress_vt_ = 0;
  /// Per-run frame plane and node records (node_state.hpp), and the
  /// engine's one view over them, bound to a node before it runs. A node
  /// sends into and reads its inbox from the one arena.
  detail::FrameArena arena_;
  detail::Presence inbox_;
  detail::NodeRecords records_;
  detail::NodeState node_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<AsyncNodeState> hosts_;  // what a snapshot saves, per node
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
