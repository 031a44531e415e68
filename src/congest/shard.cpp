#include "congest/shard.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/node_state.hpp"
#include "congest/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"
#include "support/mathutil.hpp"

namespace csd::congest::detail {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kNoWake = std::numeric_limits<std::uint64_t>::max();

std::uint64_t elapsed_ns(Clock::time_point since, Clock::time_point until) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(until - since)
          .count());
}

// One message as the sender put it on the wire, buffered by a W >= 2 outbox
// scan when the trace or an observer is attached (the payload only for an
// observer) and replayed at the barrier in ascending dense-edge order.
struct SentRecord {
  std::uint64_t edge = 0;
  Vertex src = 0;
  Vertex dst = 0;
  std::uint64_t bits = 0;
  BitVec payload;
};

// A dropped or corrupted frame, kept for the flight recorder (telemetry
// attached only) and recorded at the barrier in dense-edge order.
struct FrameEvent {
  std::uint64_t edge = 0;
  Vertex src = 0;
  obs::EventKind kind = obs::EventKind::FrameDropped;
};

// Per-worker execution context. Round-scoped members are reset by the
// coordinator before each superstep and folded at its barrier. A worker
// only ever touches its own context (plus the channels addressed to it in
// phase B), so no member needs a lock.
struct WorkerCtx {
  std::uint32_t live = 0;  // owned nodes neither halted nor crashed

  // Run-scoped: channel traffic and the last round this worker made
  // progress (halt, crash, or frame shipped), surfaced per worker by
  // ShardSpec::channel_counters and in supervisor StallReports.
  std::uint64_t channel_frames_total = 0;
  std::uint64_t channel_bits_total = 0;
  std::uint64_t last_progress_round = 0;

  // Round-scoped scratch.
  bool all_stopped = true;  // no owned node was live this round
  bool progressed = false;
  bool any_ran = false;  // some owned node's on_round ran
  // Some live owned node sleeps past the next round; only then can a
  // landing frame move a wake round, so otherwise delivery skips the store.
  bool sleepers = false;
  std::uint64_t next_wake = kNoWake;  // earliest owned wake after the round
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_message_bits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t channel_frames = 0;
  std::vector<ProtocolViolation> violations;  // ascending node index
  std::vector<Vertex> crashes;                // ascending node index
  std::vector<FrameEvent> frame_events;       // ascending edge index
  std::vector<SentRecord> sent;               // ascending edge index
  std::optional<std::string> phase;  // first NodeApi::phase this round
  Clock::time_point scan_start;      // timers: end of the compute loop

  // Channels, one per destination worker (W >= 2): the dense edge index of
  // each frame this worker's nodes send to that worker's nodes, filled in
  // ascending edge order. They keep their capacity across rounds.
  std::vector<std::vector<std::uint64_t>> out;

  // First exception this worker hit, with the vertex it was processing
  // (the coordinator rethrows the globally smallest vertex's exception:
  // the fail-fast order of a sequential loop).
  std::exception_ptr error;
  Vertex error_vertex = std::numeric_limits<Vertex>::max();

  void begin_round() {
    all_stopped = true;
    progressed = false;
    any_ran = false;
    sleepers = false;
    next_wake = kNoWake;
    messages = bits = max_message_bits = 0;
    dropped = corrupted = 0;
    channel_frames = 0;
    phase.reset();
  }
};

// Persistent superstep crew: worker 0 runs on the coordinating thread,
// workers 1..W-1 on dedicated threads woken per phase. At W = 1 there are
// no threads and run() is a direct call. Jobs must not throw (the kernel
// wraps them); the pool only synchronizes.
class SuperstepPool {
 public:
  explicit SuperstepPool(std::uint32_t workers) : workers_(workers) {
    for (std::uint32_t w = 1; w < workers_; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  }

  ~SuperstepPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quit_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  SuperstepPool(const SuperstepPool&) = delete;
  SuperstepPool& operator=(const SuperstepPool&) = delete;

  /// Run job(w) for every worker and wait for all of them (the barrier).
  void run(const std::function<void(std::uint32_t)>& job) {
    if (workers_ <= 1) {
      job(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      remaining_ = workers_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker_loop(std::uint32_t w) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(std::uint32_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return quit_ || generation_ != seen; });
        if (quit_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(w);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::uint32_t workers_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t remaining_ = 0;
  bool quit_ = false;
};

// Per-worker, per-round event lists in the global order: each worker owns a
// contiguous vertex range, the ranges ascend with the worker index, and a
// worker fills its lists in ascending vertex or dense-edge order, so the
// lists concatenated in worker order are sorted.
template <typename T, typename Consume>
void drain_in_worker_order(std::vector<WorkerCtx>& workers,
                           std::vector<T> WorkerCtx::* member,
                           Consume consume) {
  for (WorkerCtx& ctx : workers) {
    for (T& item : ctx.*member) consume(std::move(item));
    (ctx.*member).clear();
  }
}

class RoundKernel {
 public:
  RoundKernel(const Network& net, RunWorkspace& workspace,
              const ProgramFactory& factory, std::uint64_t seed,
              const MessageObserver& observe);
  RoundKernel(const RoundKernel&) = delete;
  RoundKernel& operator=(const RoundKernel&) = delete;
  // The run's programs die with it; the workspace keeps their storage.
  ~RoundKernel() { programs_.clear(); }

  RunOutcome run();

 private:
  void phase_a(std::uint32_t w);
  void phase_b(std::uint32_t w);
  void scan(WorkerCtx& ctx, std::uint32_t w);
  void land(WorkerCtx& ctx, std::uint64_t e);
  void crash(WorkerCtx& ctx, Vertex v);
  /// Fold the workers' round state into the outcome; true when no node was
  /// live this round (the run ends).
  bool barrier();
  void publish_round_telemetry();
  // The kernel's counter rows (DESIGN.md §14): the run's own counts, then
  // its FaultReport's; at W >= 2 also the channel exchange.
  auto sync_counts() const {
    return [this](auto&& row) {
      row("rounds", outcome_.metrics.rounds);
      row("messages", outcome_.metrics.messages);
      row("total_bits", outcome_.metrics.total_bits);
      fault_rows(outcome_.faults, row);
    };
  }
  auto shard_counts() const {
    return [this](auto&& row) {
      std::uint64_t frames = 0, bits = 0;
      for (const WorkerCtx& ctx : workers_) {
        frames += ctx.channel_frames_total;
        bits += ctx.channel_bits_total;
      }
      row("channel_frames", frames);
      row("channel_bits", bits);
      // Every message is dropped, delivered locally, or shipped.
      row("local_frames",
          outcome_.metrics.messages - outcome_.faults.frames_dropped - frames);
      for (std::uint32_t w = 0; w < workers_.size(); ++w)
        row("channel_frames", workers_[w].channel_frames_total, w);
    };
  }
  void publish_counts() {
    sync_plane_.publish(sync_counts());
    shard_plane_.publish(shard_counts());
  }
  RunOutcome finish();

  const NetworkConfig& config_;
  const GraphCsr& csr_;
  const std::vector<std::uint64_t>& rev_edge_;
  const Vertex n_;
  const Partition& part_;
  const bool single_;  // W = 1: inline, no channels, direct observers
  const MessageObserver& observe_;

  RunOutcome outcome_;
  std::vector<WorkerCtx> workers_;
  std::vector<NodeState> views_;  // one per worker, bound node by node
  // The workspace's tables (node_state.hpp), reset for this run. The run
  // loop swaps the two send arenas at the top of every executed round.
  FrameArena* send_arena_;
  FrameArena* received_arena_;
  Presence& inbox_;
  NodeRecords& nodes_;
  std::vector<std::uint8_t>& crashed_;
  std::vector<std::uint64_t>& wake_;
  std::vector<std::unique_ptr<NodeProgram>>& programs_;
  const bool faulty_;
  std::optional<FaultInjector> injector_;

  const bool observing_;  // trace or observer attached
  const bool timing_;
  std::uint64_t round_ = 0;
  std::uint64_t last_progress_ = 0;

  // Round state folded at the barrier.
  bool any_ran_ = false;
  bool progressed_ = false;
  std::uint64_t next_wake_ = kNoWake;
  std::uint64_t landed_ = 0;  // frames that land in an inbox this round
  std::uint64_t round_bits_ = 0;

  // csd-metrics-v2, written only by the coordinator at the barrier (the
  // ring records events in global order). Write-only.
  obs::Telemetry* const telemetry_;
  obs::RowPublisher sync_plane_;   // sync_counts()
  obs::RowPublisher shard_plane_;  // shard_counts(), W >= 2
  obs::Gauge m_arena_, m_arena_capacity_;
  obs::Histogram m_round_bits_;
  obs::Histogram m_exchange_hist_;  // W >= 2
};

RoundKernel::RoundKernel(const Network& net, RunWorkspace& workspace,
                         const ProgramFactory& factory, std::uint64_t seed,
                         const MessageObserver& observe)
    : config_(net.config()),
      csr_(net.engine_topology().csr),
      rev_edge_(net.engine_topology().rev_edge),
      n_(net.engine_topology().num_vertices()),
      part_(net.partition()),
      single_(part_.workers() == 1),
      observe_(observe),
      workers_(part_.workers()),
      send_arena_(&workspace.sends[1]),
      received_arena_(&workspace.sends[0]),
      inbox_(workspace.inbox),
      nodes_(workspace.nodes),
      crashed_(workspace.crashed),
      wake_(workspace.wake),
      programs_(workspace.programs),
      faulty_(!config_.faults.empty()),
      observing_(config_.trace.enabled || static_cast<bool>(observe)),
      timing_(config_.trace.timers),
      telemetry_(config_.telemetry) {
  workspace.reset(net.engine_topology(), seed);
  outcome_.metrics.bits_sent_by_node.assign(n_, 0);
  outcome_.trace = obs::RunTrace(n_, config_.trace);
  outcome_.metrics.timers.enabled = timing_;

  // Every run starts at round 0 with every node live (and, by wake_, due).
  views_.reserve(part_.workers());
  for (std::uint32_t w = 0; w < part_.workers(); ++w) {
    WorkerCtx& ctx = workers_[w];
    ctx.live = static_cast<std::uint32_t>(part_.owned(w).size());
    if (!single_) ctx.out.resize(part_.workers());
    // A worker's view routes violations into its per-round buffer; the
    // barrier drains the buffers into the FaultReport in node order.
    NodeState& view = views_.emplace_back(
        net.engine_topology(), config_.bandwidth, config_.broadcast_only,
        nodes_, *send_arena_, *received_arena_, inbox_, &ctx.violations);
    if (outcome_.trace) {
      if (single_)
        view.set_trace(&outcome_.trace);
      else
        view.set_phase_slot(&ctx.phase);
    }
  }
  for (Vertex v = 0; v < n_; ++v) {
    programs_.push_back(factory(v));
    CSD_CHECK_MSG(programs_.back() != nullptr,
                  "factory returned null program");
  }
  if (faulty_) injector_.emplace(config_.faults, seed, csr_);

  if (telemetry_ != nullptr) {
    m_arena_ = telemetry_->gauge("sync_arena_frames");
    m_arena_capacity_ = telemetry_->gauge("sync_arena_capacity");
    m_arena_capacity_.set(inbox_.size());
    m_round_bits_ = telemetry_->histogram("sync_round_bits");
    if (!single_)
      m_exchange_hist_ = telemetry_->histogram("shard_exchange_frames");
  }
}

void RoundKernel::crash(WorkerCtx& ctx, Vertex v) {
  crashed_[v] = 1;
  send_arena_->clear_row(csr_.offsets[v], csr_.degree(v));
  ctx.crashes.push_back(v);
  --ctx.live;
  ctx.progressed = true;
}

// Phase A: run the due owned nodes, then scan the owned outbox slice.
void RoundKernel::phase_a(std::uint32_t w) {
  WorkerCtx& ctx = workers_[w];
  if (ctx.live == 0) return;  // vote to halt: nothing to run or ship
  const std::uint64_t round = round_;
  NodeState& node = views_[w];
  const std::vector<std::uint8_t>& halted = nodes_.halted;
  for (const Vertex v : part_.owned(w)) {
    if (halted[v] || crashed_[v]) continue;
    std::optional<std::uint64_t> crash_at;
    if (faulty_) {
      crash_at = injector_->crash_round(v);
      if (crash_at.has_value() && round >= *crash_at) {
        crash(ctx, v);
        continue;
      }
    }
    ctx.all_stopped = false;
    std::uint64_t& wake = wake_[v];
    if (wake > round) {
      ctx.next_wake = std::min(ctx.next_wake, wake);
      ctx.sleepers = ctx.sleepers || wake > round + 1;
      continue;
    }
    ctx.any_ran = true;
    node.bind(v);
    node.begin_round(round);
    if (faulty_) {
      // Graceful degradation: a program that throws (typically a wire
      // decode of a corrupted payload) becomes a crashed node, not a
      // crashed process. Without faults, programming errors still
      // propagate — fail fast.
      try {
        programs_[v]->on_round(node);
      } catch (const CheckFailure& failure) {
        ctx.violations.push_back(
            {ViolationKind::ProgramFault, v, round, failure.what()});
        crash(ctx, v);
        continue;
      }
    } else {
      ctx.error_vertex = v;  // fail-fast bookkeeping, see run()
      programs_[v]->on_round(node);
    }
    if (halted[v]) {
      --ctx.live;
      ctx.progressed = true;
      continue;
    }
    wake = std::max(round + 1, node.wake_hint());
    if (crash_at.has_value()) wake = std::min(wake, *crash_at);
    ctx.next_wake = std::min(ctx.next_wake, wake);
    ctx.sleepers = ctx.sleepers || wake > round + 1;
  }
  if (timing_) ctx.scan_start = Clock::now();
  // Fresh inboxes for round + 1 before any delivery lands in them. The
  // owned nodes' inbox rows are one contiguous slot range, and only this
  // worker writes it (locally here, remotely in its own phase B), so the
  // clear never races.
  inbox_.clear_row(csr_.offsets[part_.first(w)],
                   part_.owned_directed_edges(w));
  scan(ctx, w);
}

// The outbox scan: account, observe, apply the fault fate, then land a
// frame whose receiver is in this worker's range or list the edge for its
// owner's phase B. The payload stays in the sender's slot, where its
// receiver reads it next round; a corruption flips the bit there.
void RoundKernel::scan(WorkerCtx& ctx, std::uint32_t w) {
  const std::uint64_t round = round_;
  const Vertex lo = part_.first(w);
  const Vertex hi = part_.first(w + 1);
  obs::RunTrace& trace = outcome_.trace;
  std::vector<std::uint64_t>& bits_sent = outcome_.metrics.bits_sent_by_node;
  FrameArena& sent = *send_arena_;
  for (const Vertex v : part_.owned(w)) {
    if (crashed_[v]) continue;
    const auto nbrs = csr_.row(v);
    const std::uint64_t base = csr_.offsets[v];
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const std::uint64_t e = base + p;
      std::uint8_t& out_present = sent.present(e);
      if (out_present == 0) continue;
      out_present = 0;
      BitVec& payload = sent.payload(e);
      const std::uint64_t bits = payload.size();
      const Vertex dst = nbrs[p];
      ++ctx.messages;
      ctx.bits += bits;
      bits_sent[v] += bits;
      ctx.max_message_bits = std::max(ctx.max_message_bits, bits);
      if (single_) {
        if (trace) trace.record(round, v, dst, bits);
        if (observe_) observe_(round, v, dst, payload);
      } else if (observing_) {
        SentRecord rec{e, v, dst, bits, {}};
        if (observe_) rec.payload = payload;
        ctx.sent.push_back(std::move(rec));
      }
      if (faulty_) {
        const auto fate = injector_->next_fate(v, p, bits);
        if (fate.dropped) {
          ++ctx.dropped;
          if (telemetry_ != nullptr)
            ctx.frame_events.push_back({e, v, obs::EventKind::FrameDropped});
          continue;
        }
        if (fate.corrupted) {
          ++ctx.corrupted;
          payload.flip(fate.corrupt_bit);
          if (telemetry_ != nullptr)
            ctx.frame_events.push_back(
                {e, v, obs::EventKind::FrameCorrupted});
        }
      }
      ctx.progressed = true;
      if (dst >= lo && dst < hi) {
        land(ctx, e);
      } else {
        ++ctx.channel_frames;
        ctx.channel_bits_total += bits;
        ctx.out[part_.owner(dst)].push_back(e);
      }
    }
  }
}

// The frame on dense edge e lands in its receiver's inbox: one presence
// byte at the receiver's port, the reverse edge. `ctx` is the receiver's
// owner (the only writer of its inbox row and wake round).
void RoundKernel::land(WorkerCtx& ctx, std::uint64_t e) {
  inbox_[rev_edge_[e]] = 1;
  if (ctx.sleepers) wake_[csr_.neighbors[e]] = round_ + 1;
}

// Phase B: drain every channel addressed to this worker, in source-worker
// order, which is ascending edge order.
void RoundKernel::phase_b(std::uint32_t w) {
  WorkerCtx& ctx = workers_[w];
  for (WorkerCtx& src : workers_) {
    std::vector<std::uint64_t>& edges = src.out[w];
    for (const std::uint64_t e : edges) land(ctx, e);
    edges.clear();
  }
}

bool RoundKernel::barrier() {
  bool all_stopped = true;
  any_ran_ = false;
  progressed_ = false;
  next_wake_ = kNoWake;
  landed_ = 0;
  round_bits_ = 0;
  RunMetrics& metrics = outcome_.metrics;
  for (const WorkerCtx& ctx : workers_) {
    all_stopped = all_stopped && ctx.all_stopped;
    any_ran_ = any_ran_ || ctx.any_ran;
    progressed_ = progressed_ || ctx.progressed;
    next_wake_ = std::min(next_wake_, ctx.next_wake);
    landed_ += ctx.messages - ctx.dropped;
    round_bits_ += ctx.bits;
    metrics.messages += ctx.messages;
    metrics.max_message_bits =
        std::max(metrics.max_message_bits, ctx.max_message_bits);
    outcome_.faults.frames_dropped += ctx.dropped;
    outcome_.faults.frames_corrupted += ctx.corrupted;
  }
  metrics.total_bits += round_bits_;

  // Order-sensitive lists in the global order, worker by worker. The flight
  // recorder gets, per round: crashes by node, violations by node, fault
  // fates by dense edge (listed only with telemetry attached). At W = 1
  // nothing is in `sent`: the scan recorded the trace and called the
  // observer.
  const std::uint64_t round = round_;
  drain_in_worker_order(workers_, &WorkerCtx::crashes, [&](Vertex v) {
    outcome_.faults.crashed_nodes.push_back(v);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::NodeCrash, v, round);
  });
  drain_in_worker_order(
      workers_, &WorkerCtx::violations, [&](ProtocolViolation&& pv) {
        if (telemetry_ != nullptr)
          telemetry_->record(obs::EventKind::Violation, pv.node, round);
        outcome_.faults.violations.push_back(std::move(pv));
      });
  drain_in_worker_order(
      workers_, &WorkerCtx::frame_events,
      [&](FrameEvent&& ev) { telemetry_->record(ev.kind, ev.src, round); });
  drain_in_worker_order(workers_, &WorkerCtx::sent, [&](SentRecord&& rec) {
    if (outcome_.trace)
      outcome_.trace.record(round, rec.src, rec.dst, rec.bits);
    if (observe_) observe_(round, rec.src, rec.dst, rec.payload);
  });
  // At W >= 2: the lowest worker whose slot is set holds the first phase
  // its nodes declared, which is the lowest declaring node's: the phase
  // W = 1 records (first declaration wins).
  for (const WorkerCtx& ctx : workers_)
    if (ctx.phase.has_value()) {
      outcome_.trace.set_phase(round, *ctx.phase);
      break;
    }
  return all_stopped;
}

void RoundKernel::publish_round_telemetry() {
  m_arena_.set(landed_);
  m_round_bits_.observe(round_bits_);
  publish_counts();
  if (single_) return;
  std::uint64_t exchanged = 0;
  for (std::uint32_t w = 0; w < workers_.size(); ++w) {
    const WorkerCtx& ctx = workers_[w];
    exchanged += ctx.channel_frames;
    if (ctx.channel_frames != 0)
      telemetry_->record(obs::EventKind::ChannelExchange, w, round_,
                         ctx.channel_frames);
  }
  m_exchange_hist_.observe(exchanged);
  telemetry_->record(obs::EventKind::SuperstepBarrier, 0, round_, exchanged);
}

RunOutcome RoundKernel::run() {
  // Jobs never throw across the pool: exceptions park in the context and
  // the coordinator rethrows the one from the globally smallest vertex
  // (each worker stops at its first thrower, so its unrun vertices cannot
  // beat it).
  const auto guarded = [this](void (RoundKernel::*job)(std::uint32_t)) {
    return std::function<void(std::uint32_t)>([this, job](std::uint32_t w) {
      try {
        (this->*job)(w);
      } catch (...) {
        workers_[w].error = std::current_exception();
      }
    });
  };
  const auto rethrow_any = [this] {
    const WorkerCtx* best = nullptr;
    for (const WorkerCtx& ctx : workers_)
      if (ctx.error &&
          (best == nullptr || ctx.error_vertex < best->error_vertex))
        best = &ctx;
    if (best != nullptr) std::rethrow_exception(best->error);
  };
  SuperstepPool pool(part_.workers());
  const std::function<void(std::uint32_t)> phase_a_job =
      guarded(&RoundKernel::phase_a);
  const std::function<void(std::uint32_t)> phase_b_job =
      guarded(&RoundKernel::phase_b);

  // Timer split: at W = 1 the compute loop counts as compute_ns, the outbox
  // scan and delivery as delivery_ns (exact; the barrier is in neither). At
  // W >= 2 phase A's wall time counts as compute, the barrier and phase B
  // as delivery (approximate). Timings stay out of the trace and out of
  // every determinism contract.
  obs::EngineTimers& timers = outcome_.metrics.timers;
  sync_plane_ = obs::RowPublisher(telemetry_, "sync_", sync_counts());
  if (!single_)
    shard_plane_ = obs::RowPublisher(telemetry_, "shard_", shard_counts());
  for (; round_ < config_.max_rounds; ++round_) {
    // A deadline past the end of the round counter never fires.
    if (config_.stall_window != 0 &&
        round_ >= saturating_add(last_progress_, config_.stall_window)) {
      outcome_.faults.watchdog_stalls = 1;
      if (telemetry_ != nullptr)
        telemetry_->record(obs::EventKind::WatchdogStall, 0, round_,
                           round_ - last_progress_);
      break;
    }

    // This round sends into the arena the round before last sent into and
    // reads the previous round's messages from the other one.
    std::swap(send_arena_, received_arena_);
    for (NodeState& view : views_)
      view.set_arenas(*send_arena_, *received_arena_);
    for (WorkerCtx& ctx : workers_) ctx.begin_round();
    const auto compute_start = timing_ ? Clock::now() : Clock::time_point{};
    pool.run(phase_a_job);
    rethrow_any();
    Clock::time_point split{};
    if (timing_) {
      const auto phase_a_end = Clock::now();
      // A worker that voted to halt never stamps its scan start.
      split = single_ ? std::max(workers_[0].scan_start, compute_start)
                      : phase_a_end;
      timers.compute_ns += elapsed_ns(compute_start, split);
      if (single_) timers.delivery_ns += elapsed_ns(split, phase_a_end);
    }

    const bool all_stopped = barrier();
    if (!all_stopped) {
      // Every live node slept through this round (say it only crashed a
      // node): it keeps the previous round's phase, like a skipped round.
      if (!any_ran_) outcome_.trace.carry_phase(round_ - 1, round_ + 1);
      if (!single_) {
        pool.run(phase_b_job);
        rethrow_any();
      }
    }
    if (timing_ && !single_)
      timers.delivery_ns += elapsed_ns(split, Clock::now());
    if (all_stopped) break;

    outcome_.metrics.rounds = round_ + 1;
    for (WorkerCtx& ctx : workers_) {
      ctx.channel_frames_total += ctx.channel_frames;
      if (ctx.progressed) ctx.last_progress_round = round_ + 1;
    }
    if (progressed_) last_progress_ = round_ + 1;
    if (telemetry_ != nullptr) publish_round_telemetry();

    // Nothing landed, so no node runs before next_wake and no message is
    // pending for the next round: skip the idle stretch in one step,
    // stopping where the stall watchdog or the round cap acts so they fire
    // in the same round as in a round-by-round run. The skipped rounds keep
    // their trace rows (with the inherited phase) and their telemetry.
    if (landed_ == 0 && next_wake_ != kNoWake) {
      std::uint64_t next = std::min(next_wake_, config_.max_rounds);
      if (config_.stall_window != 0)
        next = std::min(next,
                        saturating_add(last_progress_, config_.stall_window));
      if (next > round_ + 1) {
        outcome_.trace.carry_phase(round_, next);
        outcome_.metrics.rounds = next;
        if (telemetry_ != nullptr) {
          for (std::uint64_t r = round_ + 1; r < next; ++r)
            m_round_bits_.observe(0);
          publish_counts();
        }
        round_ = next - 1;  // the loop's ++round_ lands on `next`
      }
    }
  }
  return finish();
}

RunOutcome RoundKernel::finish() {
  RunOutcome& outcome = outcome_;
  const std::vector<std::uint8_t>& halted = nodes_.halted;
  outcome.completed = std::all_of(halted.begin(), halted.end(),
                                  [](std::uint8_t h) { return h != 0; });
  outcome.verdicts = nodes_.verdicts;
  for (Vertex v = 0; v < n_; ++v) {
    const bool rejected = outcome.verdicts[v] == Verdict::Reject;
    if (rejected) outcome.detected = true;
    if (!crashed_[v] && rejected) outcome.faults.detected_by_survivors = true;
    if (!crashed_[v] && halted[v] == 0)
      outcome.faults.stalled_nodes.push_back(v);
  }
  publish_counts();
  if (config_.shard.channel_counters) {
    // Opt-in only: these depend on W (and on the partition), so the
    // determinism matrix runs without them and the nightly sweep with.
    auto& counters = outcome.metrics.counters;
    counters.add("shard_workers", part_.workers());
    counters.add("shard_cut_edges", part_.cut_directed_edges());
    for (std::uint32_t w = 0; w < workers_.size(); ++w) {
      const WorkerCtx& ctx = workers_[w];
      counters.add(obs::worker_counter_name("shard_channel_frames", w),
                   ctx.channel_frames_total);
      counters.add(obs::worker_counter_name("shard_channel_bytes", w),
                   (ctx.channel_bits_total + 7) / 8);
      // Per-worker stall provenance: the last round this worker halted a
      // node, crashed one, or shipped a frame. Supervisor StallReports
      // carry these through to the post-mortem.
      counters.add(obs::worker_counter_name("shard_last_progress", w),
                   ctx.last_progress_round);
    }
  }
  if (outcome.trace) {
    // Materialize quiet trailing rounds so trace rounds == metrics.rounds
    // (the exponent fit divides by segments to recover per-repetition
    // rounds), and surface the FaultReport's rows and the shard rows in
    // the summary.
    outcome.trace.finish_run(round_);
    const auto add = [&](std::string_view name, std::uint64_t value) {
      outcome.trace.add_counter(name, value);
    };
    fault_rows(outcome.faults, add);
    for (const auto& [name, value] : outcome.metrics.counters.entries())
      add(name, value);
  }
  return std::move(outcome_);
}

}  // namespace

RunOutcome run_rounds(const Network& net, RunWorkspace& workspace,
                      const ProgramFactory& factory, std::uint64_t seed,
                      const MessageObserver& observe) {
  return RoundKernel(net, workspace, factory, seed, observe).run();
}

}  // namespace csd::congest::detail
