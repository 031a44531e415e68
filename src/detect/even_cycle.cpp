#include "detect/even_cycle.hpp"

#include <algorithm>

#include "detect/fifo.hpp"
#include "detect/id_set.hpp"
#include "support/check.hpp"
#include "support/mathutil.hpp"
#include "support/wire.hpp"

namespace csd::detect {

namespace {

constexpr std::uint32_t kNoLayer = static_cast<std::uint32_t>(-1);

/// Role of a node in the phase-II prefix propagation, derived from its color.
struct Role {
  enum Kind : std::uint8_t { Origin, Increasing, Decreasing, Midpoint } kind;
  /// Prefix position for Increasing/Decreasing (1..k-1); 0/k otherwise.
  std::uint32_t position;
};

Role role_of_color(std::uint32_t color, std::uint32_t k) {
  if (color == 0) return {Role::Origin, 0};
  if (color < k) return {Role::Increasing, color};
  if (color == k) return {Role::Midpoint, k};
  return {Role::Decreasing, 2 * k - color};
}

class EvenCycleProgram final : public congest::NodeProgram {
 public:
  EvenCycleProgram(const EvenCycleConfig& cfg, EvenCycleProbe* probe)
      : cfg_(cfg), probe_(probe) {}

  void on_round(congest::NodeApi& api) override {
    run_round(api);
    // Activity hint (DESIGN.md §15): an idle node sleeps until the next
    // schedule boundary; tokens arriving earlier wake it through its mail.
    const std::uint64_t r = api.round();
    if (!busy(r)) api.sleep_until(next_boundary(r));
  }

 private:
  void run_round(congest::NodeApi& api) {
    if (api.round() == 0) setup(api);

    const std::uint64_t r = api.round();
    if (r <= sched_.phase1_rounds) {
      api.phase(r < sched_.phase1_rounds ? "phase1-pipeline"
                                         : "phase1-removal");
      phase1_round(api);
      if (r == sched_.phase1_rounds) {
        // Removal announcement: 1 = I am high-degree and drop out.
        wire::Writer w(api.scratch());
        w.boolean(removed_);
        api.broadcast(std::move(w).take());
      }
      return;
    }

    const std::uint64_t peel_begin = sched_.phase1_rounds + 1;
    const std::uint64_t peel_end = peel_begin + sched_.layer_waves;  // excl.
    if (r == peel_begin) record_removals(api);
    if (r >= peel_begin && r < peel_end) {
      api.phase("phase2-peel");
      peel_round(api, static_cast<std::uint32_t>(r - peel_begin));
      return;
    }
    api.phase(r == sched_.final_round ? "phase2-midpoint"
                                      : "phase2-propagate");
    if (r == peel_end) {
      // Unassigned active node after ⌈log n⌉+1 waves: the remaining graph is
      // denser than any C_2k-free graph can be — certifies a cycle.
      absorb_peels(api);
      if (!removed_ && layer_ == kNoLayer) api.reject();
    }

    propagation_round(api);

    if (r == sched_.final_round) {
      midpoint_check(api);
      CSD_CHECK_MSG(queue_.empty(), "phase-II token queue failed to drain");
      api.halt();
    }
  }

  // -- activity ---------------------------------------------------------
  /// True iff, even without a message, this node acts in round r + 1: a
  /// phase-I token to forward, or a prefix token to forward in its send
  /// window. Everything else the program does is driven by its inbox or
  /// happens at a schedule boundary.
  bool busy(std::uint64_t r) const {
    if (r < sched_.phase1_rounds) return !phase1_queue_.empty();
    return !queue_.empty() &&
           in_send_window(r + 1, role_of_color(color2_, cfg_.k).position);
  }

  /// First schedule boundary after round r: the phase-I deadline R1, the
  /// first peel wave, a propagation window start, or the final round. Every
  /// node runs at each of them, so no sleep spans a phase change.
  std::uint64_t next_boundary(std::uint64_t r) const {
    if (r < sched_.phase1_rounds) return sched_.phase1_rounds;
    if (r == sched_.phase1_rounds) return r + 1;
    for (std::uint32_t w = 1; w <= cfg_.k; ++w)
      if (sched_.window_start[w] > r) return sched_.window_start[w];
    return sched_.final_round;
  }

  // -- setup ------------------------------------------------------------
  void setup(congest::NodeApi& api) {
    sched_ = make_even_cycle_schedule(api.network_size(), cfg_);
    id_bits_ = wire::bits_for(api.namespace_size());
    hop_bits_ = wire::bits_for(2 * cfg_.k);
    pos_bits_ = wire::bits_for(cfg_.k + 1);
    layer_bits_ = wire::bits_for(sched_.layer_waves + 1);
    const std::uint64_t needed = std::max<std::uint64_t>(
        id_bits_ + hop_bits_, 1 + pos_bits_ + id_bits_ + layer_bits_);
    CSD_CHECK_MSG(api.bandwidth() == 0 || api.bandwidth() >= needed,
                  "bandwidth too small for C_2k detection");
    color1_ = static_cast<std::uint32_t>(api.rng().below(2 * cfg_.k));
    color2_ = static_cast<std::uint32_t>(api.rng().below(2 * cfg_.k));
    removed_ = api.degree() >= sched_.degree_threshold;
    phase1_seen_.init(api.namespace_size());
    token_seen_.init(api.namespace_size());
    incr_origins_.init(api.namespace_size());
    decr_origins_.init(api.namespace_size());
    // Every neighbor starts active and unassigned.
    neighbor_flags_.assign(api.degree(), kActive | kUnassigned);
    if (cfg_.enable_phase1 && color1_ == 0 &&
        api.degree() >= sched_.degree_threshold)
      phase1_queue_.push_back(api.id());
  }

  // -- phase I ----------------------------------------------------------
  void phase1_round(congest::NodeApi& api) {
    // Process incoming tokens (none in round 0).
    if (api.round() > 0) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        wire::Reader reader(*msg);
        const congest::NodeId origin = reader.u(id_bits_);
        const auto hop = static_cast<std::uint32_t>(reader.u(hop_bits_));
        if (origin == api.id() && hop == 2 * cfg_.k - 1) {
          api.reject();  // properly-colored 2k-cycle closed
          continue;
        }
        if (color1_ != hop + 1) continue;
        if (!phase1_seen_.insert(origin)) continue;
        phase1_queue_.push_back(origin);
      }
    }

    if (probe_ != nullptr) {
      probe_->max_phase1_queue = std::max<std::uint64_t>(
          probe_->max_phase1_queue, phase1_queue_.size());
      if (!phase1_queue_.empty())
        probe_->phase1_drained_round =
            std::max(probe_->phase1_drained_round, api.round() + 1);
    }

    if (api.round() == sched_.phase1_rounds) {
      // Deadline (Lemma 6.1): a busy queue certifies |E| > M (Lemma 6.3).
      if (!phase1_queue_.empty()) {
        api.reject();
        if (probe_ != nullptr) probe_->phase1_deadline_reject = true;
      }
      phase1_queue_.clear();
      phase1_seen_.clear();
      return;  // removal bit is broadcast by the caller this round
    }

    if (!phase1_queue_.empty()) {
      const congest::NodeId origin = phase1_queue_.front();
      phase1_queue_.pop_front();
      wire::Writer w(api.scratch());
      w.u(origin, id_bits_);
      w.u(color1_, hop_bits_);
      api.broadcast(std::move(w).take());
    }
  }

  // -- phase II: peeling --------------------------------------------------
  void record_removals(congest::NodeApi& api) {
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      const auto* msg = api.inbox(p);
      CSD_CHECK_MSG(msg != nullptr, "missing removal announcement");
      wire::Reader reader(*msg);
      if (reader.boolean()) {
        // A removed neighbor is neither active nor unassigned.
        neighbor_flags_[p] = 0;
      }
    }
  }

  void peel_round(congest::NodeApi& api, std::uint32_t wave) {
    if (removed_) return;
    if (wave > 0) absorb_peels(api);
    if (layer_ != kNoLayer) return;
    std::uint64_t remaining = 0;
    for (std::uint32_t p = 0; p < api.degree(); ++p)
      if ((neighbor_flags_[p] & kUnassigned) != 0) ++remaining;
    if (remaining <= sched_.peel_degree) {
      layer_ = wave;
      wire::Writer w(api.scratch());
      w.boolean(true);
      api.broadcast(std::move(w).take());
    }
  }

  /// Mark neighbors that announced peeling in the previous round.
  void absorb_peels(congest::NodeApi& api) {
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      const auto* msg = api.inbox(p);
      if (msg == nullptr) continue;
      wire::Reader reader(*msg);
      if (reader.boolean()) neighbor_flags_[p] &= kActive;  // peeled
    }
  }

  // -- phase II: prefix propagation ---------------------------------------
  struct Token {
    congest::NodeId origin;
    std::uint32_t origin_layer;
    bool decreasing;
    std::uint32_t position;  // position of the *sender* of this token
  };

  void propagation_round(congest::NodeApi& api) {
    const std::uint64_t r = api.round();
    if (removed_ || layer_ == kNoLayer) return;
    const Role role = role_of_color(color2_, cfg_.k);

    // Receive tokens (any round past the first propagation window start).
    if (r > sched_.window_start[1]) receive_tokens(api, role);

    // Origin announcement in window 1.
    if (r == sched_.window_start[1] && role.kind == Role::Origin &&
        cfg_.enable_phase2) {
      wire::Writer w(api.scratch());
      w.boolean(false);
      w.u(0, pos_bits_);
      w.u(api.id(), id_bits_);
      w.u(layer_, layer_bits_);
      api.broadcast(std::move(w).take());
      return;
    }

    // Forwarding windows 2..k (positions 1..k-1 send).
    if ((role.kind == Role::Increasing || role.kind == Role::Decreasing) &&
        in_send_window(r, role.position) && !queue_.empty()) {
      const Token token = queue_.front();
      queue_.pop_front();
      wire::Writer w(api.scratch());
      w.boolean(token.decreasing);
      w.u(role.position, pos_bits_);
      w.u(token.origin, id_bits_);
      w.u(token.origin_layer, layer_bits_);
      api.broadcast(std::move(w).take());
    }
  }

  bool in_send_window(std::uint64_t r, std::uint32_t position) const {
    const std::uint32_t window = position + 1;  // position p sends in w_{p+1}
    if (window > cfg_.k) return false;
    const std::uint64_t begin = sched_.window_start[window];
    const std::uint64_t end = window == cfg_.k
                                  ? sched_.final_round
                                  : sched_.window_start[window + 1];
    return r >= begin && r < end;
  }

  void receive_tokens(congest::NodeApi& api, const Role& role) {
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      const auto* msg = api.inbox(p);
      if (msg == nullptr || (neighbor_flags_[p] & kActive) == 0) continue;
      wire::Reader reader(*msg);
      Token token;
      token.decreasing = reader.boolean();
      token.position = static_cast<std::uint32_t>(reader.u(pos_bits_));
      token.origin = reader.u(id_bits_);
      token.origin_layer =
          static_cast<std::uint32_t>(reader.u(layer_bits_));
      // Layer constraint: every cycle node must lie on a layer <= ℓ(u0).
      if (layer_ == kNoLayer || token.origin_layer < layer_) continue;

      if (role.kind == Role::Midpoint) {
        if (token.position != cfg_.k - 1) continue;
        auto& set = token.decreasing ? decr_origins_ : incr_origins_;
        set.insert(token.origin);
        continue;
      }
      if (role.kind != Role::Increasing && role.kind != Role::Decreasing)
        continue;
      const bool want_decreasing = role.kind == Role::Decreasing;
      // Position-0 announcements are direction-neutral: position-1 nodes of
      // both directions pick them up and stamp their own direction.
      if (token.position != role.position - 1) continue;
      if (token.position > 0 && token.decreasing != want_decreasing) continue;
      if (!token_seen_.insert(token.origin)) continue;
      token.position = role.position;
      token.decreasing = want_decreasing;  // stamp direction at position 1
      queue_.push_back(token);
    }
  }

  void midpoint_check(congest::NodeApi& api) {
    if (removed_ || layer_ == kNoLayer) return;
    if (role_of_color(color2_, cfg_.k).kind != Role::Midpoint) return;
    // Increasing and decreasing prefixes meet at the midpoint: C_2k. With
    // dense id sets this is one word-parallel intersection.
    if (intersects(incr_origins_, decr_origins_)) api.reject();
  }

  // -- state --------------------------------------------------------------
  EvenCycleConfig cfg_;
  EvenCycleProbe* probe_ = nullptr;
  EvenCycleSchedule sched_;
  unsigned id_bits_ = 0, hop_bits_ = 0, pos_bits_ = 0, layer_bits_ = 0;
  std::uint32_t color1_ = 0, color2_ = 0;
  bool removed_ = false;
  std::uint32_t layer_ = kNoLayer;
  static constexpr std::uint8_t kActive = 1, kUnassigned = 2;
  std::vector<std::uint8_t> neighbor_flags_;  // kActive | kUnassigned per port
  Fifo<congest::NodeId> phase1_queue_;
  IdSet phase1_seen_;
  Fifo<Token> queue_;
  IdSet token_seen_;
  IdSet incr_origins_;
  IdSet decr_origins_;
};

}  // namespace

EvenCycleSchedule make_even_cycle_schedule(std::uint64_t n,
                                           const EvenCycleConfig& cfg) {
  CSD_CHECK_MSG(cfg.k >= 2, "C_2k detection requires k >= 2");
  CSD_CHECK_MSG(n >= 2, "network too small");
  EvenCycleSchedule s;
  s.n = n;
  s.k = cfg.k;
  s.edge_bound_m = even_cycle_edge_bound(n, cfg.k, cfg.c_num, cfg.c_den);
  // T = ⌈n^{1/(k-1)}⌉ (degree threshold n^δ, δ = 1/(k-1)).
  s.degree_threshold = ceil_kth_root(n, cfg.k - 1);
  // d = ⌈4M/n⌉: twice the largest average degree a C_2k-free remainder can
  // have, so each peel wave removes at least half the remaining nodes.
  s.peel_degree = std::max<std::uint64_t>(1, ceil_div(4 * s.edge_bound_m, n));
  // R1 = ⌈2M/T⌉ + 2k + 1: token origins bound + travel slack.
  s.phase1_rounds =
      ceil_div(2 * s.edge_bound_m, s.degree_threshold) + 2 * cfg.k + 1;
  s.layer_waves = ceil_log2(n) + 1;

  // Propagation windows: w_1 is one round; w_{p+1} has length d·T^{p-1},
  // covering the worst-case number of distinct prefix tokens at position p.
  s.window_start.assign(cfg.k + 1, 0);
  std::uint64_t cursor = s.phase1_rounds + 1 + s.layer_waves;
  s.window_start[1] = cursor;
  cursor += 1;
  for (std::uint32_t w = 2; w <= cfg.k; ++w) {
    s.window_start[w] = cursor;
    cursor += s.peel_degree * ipow(s.degree_threshold, w - 2);
  }
  s.final_round = cursor;  // one round for the midpoint's last receive
  return s;
}

congest::ProgramFactory even_cycle_program(const EvenCycleConfig& cfg,
                                           EvenCycleProbe* probe) {
  return [cfg, probe](std::uint32_t) {
    return std::make_unique<EvenCycleProgram>(cfg, probe);
  };
}

std::uint64_t even_cycle_min_bandwidth(std::uint64_t n,
                                       const EvenCycleConfig& cfg) {
  const EvenCycleSchedule s = make_even_cycle_schedule(n, cfg);
  const unsigned id_bits = wire::bits_for(n);
  const unsigned hop_bits = wire::bits_for(2 * cfg.k);
  const unsigned pos_bits = wire::bits_for(cfg.k + 1);
  const unsigned layer_bits = wire::bits_for(s.layer_waves + 1);
  return std::max<std::uint64_t>(id_bits + hop_bits,
                                 1 + pos_bits + id_bits + layer_bits);
}

congest::RunOutcome detect_even_cycle(const Graph& g,
                                      const EvenCycleConfig& cfg,
                                      std::uint64_t bandwidth,
                                      std::uint64_t seed) {
  congest::NetworkConfig net_cfg;
  net_cfg.bandwidth = bandwidth;
  net_cfg.seed = seed;
  net_cfg.trace = cfg.trace;
  net_cfg.shard = cfg.shard;
  net_cfg.telemetry = cfg.telemetry;
  net_cfg.max_rounds =
      make_even_cycle_schedule(std::max<std::uint64_t>(2, g.num_vertices()),
                               cfg)
          .total_rounds() +
      1;
  return congest::Supervisor(g, net_cfg, {cfg.amplify})
      .run(even_cycle_program(cfg), cfg.repetitions)
      .outcome;
}

}  // namespace csd::detect
