#include "detect/weighted_cycle.hpp"

#include <unordered_set>

#include "detect/fifo.hpp"
#include "support/check.hpp"
#include "support/wire.hpp"

namespace csd::detect {

namespace {

class WeightedCycleProgram final : public congest::NodeProgram {
 public:
  WeightedCycleProgram(const WeightedCycleConfig& cfg, EdgeWeightFn weight)
      : cfg_(cfg), weight_(std::move(weight)) {}

  void on_round(congest::NodeApi& api) override {
    const unsigned id_bits = wire::bits_for(api.namespace_size());
    const unsigned hop_bits = wire::bits_for(cfg_.length);
    const unsigned weight_bits = wire::bits_for(cfg_.target_weight + 1);

    if (api.round() == 0) {
      CSD_CHECK_MSG(api.bandwidth() == 0 ||
                        api.bandwidth() >=
                            id_bits + hop_bits + weight_bits,
                    "bandwidth too small for weighted cycle detection");
      color_ = static_cast<std::uint32_t>(api.rng().below(cfg_.length));
      budget_ = weighted_cycle_round_budget(api.network_size(), cfg_);
      if (color_ == 0 && api.degree() > 0) queue_.push_back({api.id(), 0});
    } else {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        wire::Reader reader(*msg);
        const congest::NodeId origin = reader.u(id_bits);
        const auto hop = static_cast<std::uint32_t>(reader.u(hop_bits));
        std::uint64_t acc = reader.u(weight_bits);
        // The token pays for the edge it just crossed.
        acc += weight_(static_cast<Vertex>(api.neighbor_id(p)),
                       static_cast<Vertex>(api.id()));
        if (acc > cfg_.target_weight) continue;  // can only grow: prune
        if (origin == api.id() && hop == cfg_.length - 1) {
          if (acc == cfg_.target_weight) api.reject();
          continue;
        }
        if (color_ != hop + 1) continue;
        // Weights forbid per-origin dedup: distinct accumulated weights are
        // distinct tokens (this is the blow-up).
        if (!seen_.insert(origin * (cfg_.target_weight + 1) + acc).second)
          continue;
        queue_.push_back({origin, acc});
      }
    }

    if (!queue_.empty()) {
      const auto [origin, acc] = queue_.front();
      queue_.pop_front();
      wire::Writer w(api.scratch());
      w.u(origin, id_bits);
      w.u(color_, hop_bits);
      w.u(acc, weight_bits);
      api.broadcast(std::move(w).take());
    }

    if (api.round() + 1 >= budget_) {
      CSD_CHECK_MSG(queue_.empty(), "weighted cycle queue failed to drain");
      api.halt();
    }
  }

 private:
  WeightedCycleConfig cfg_;
  EdgeWeightFn weight_;
  std::uint32_t color_ = 0;
  std::uint64_t budget_ = 0;
  Fifo<std::pair<congest::NodeId, std::uint64_t>> queue_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace

congest::ProgramFactory weighted_cycle_program(const WeightedCycleConfig& cfg,
                                               EdgeWeightFn weight) {
  CSD_CHECK_MSG(cfg.length >= 3, "cycle length must be >= 3");
  CSD_CHECK_MSG(weight != nullptr, "weight function required");
  return [cfg, weight](std::uint32_t) {
    return std::make_unique<WeightedCycleProgram>(cfg, weight);
  };
}

std::uint64_t weighted_cycle_round_budget(std::uint64_t n,
                                          const WeightedCycleConfig& cfg) {
  return n * (cfg.target_weight + 1) + cfg.length + 1;
}

std::uint64_t weighted_cycle_min_bandwidth(std::uint64_t namespace_size,
                                           const WeightedCycleConfig& cfg) {
  return wire::bits_for(namespace_size) + wire::bits_for(cfg.length) +
         wire::bits_for(cfg.target_weight + 1);
}

congest::RunOutcome detect_weighted_cycle(const Graph& g,
                                          const WeightedCycleConfig& cfg,
                                          const EdgeWeightFn& weight,
                                          std::uint64_t bandwidth,
                                          std::uint64_t seed) {
  congest::NetworkConfig net_cfg;
  net_cfg.bandwidth = bandwidth;
  net_cfg.seed = seed;
  net_cfg.max_rounds = weighted_cycle_round_budget(g.num_vertices(), cfg) + 1;
  return congest::Supervisor(g, net_cfg, {cfg.amplify})
      .run(weighted_cycle_program(cfg, weight), cfg.repetitions)
      .outcome;
}

}  // namespace csd::detect
