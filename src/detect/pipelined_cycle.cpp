#include "detect/pipelined_cycle.hpp"

#include <unordered_set>

#include "detect/fifo.hpp"
#include "support/check.hpp"
#include "support/wire.hpp"

namespace csd::detect {

namespace {

/// Token = (origin id, hop count); fixed-width encoding.
class PipelinedCycleProgram final : public congest::NodeProgram {
 public:
  explicit PipelinedCycleProgram(std::uint32_t length) : length_(length) {}

  void on_round(congest::NodeApi& api) override {
    const unsigned id_bits = wire::bits_for(api.namespace_size());
    const unsigned hop_bits = wire::bits_for(length_);

    api.phase(api.round() == 0 ? "color" : "pipeline");
    if (api.round() == 0) {
      CSD_CHECK_MSG(api.bandwidth() == 0 ||
                        api.bandwidth() >= id_bits + hop_bits,
                    "bandwidth too small for pipelined cycle detection");
      color_ = static_cast<std::uint32_t>(api.rng().below(length_));
      budget_ = pipelined_cycle_round_budget(api.network_size(), length_);
      if (color_ == 0 && api.degree() > 0) queue_.push_back(api.id());
    } else {
      // Process tokens delivered this round.
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        wire::Reader reader(*msg);
        const congest::NodeId origin = reader.u(id_bits);
        const auto hop = static_cast<std::uint32_t>(reader.u(hop_bits));
        if (origin == api.id() && hop == length_ - 1) {
          api.reject();  // own token came back: properly-colored L-cycle
          continue;
        }
        if (color_ != hop + 1) continue;       // color filter
        if (!seen_.insert(origin).second) continue;  // dedup per origin
        queue_.push_back(origin);
      }
    }

    // Forward one queued token per round (pipelining). Tokens re-broadcast
    // by the queueing node carry hop = its own color; the origin's initial
    // token carries hop 0 = its color.
    if (!queue_.empty()) {
      const congest::NodeId origin = queue_.front();
      queue_.pop_front();
      wire::Writer w(api.scratch());
      w.u(origin, id_bits);
      w.u(color_, hop_bits);
      api.broadcast(std::move(w).take());
    }

    if (api.round() + 1 >= budget_) {
      // A non-empty queue here cannot happen: every node forwards at most
      // one token per distinct origin, so queues drain within n + L rounds.
      CSD_CHECK_MSG(queue_.empty(), "pipelined cycle queue failed to drain");
      api.halt();
    }
  }

 private:
  std::uint32_t length_;
  std::uint32_t color_ = 0;
  std::uint64_t budget_ = 0;
  Fifo<congest::NodeId> queue_;
  std::unordered_set<congest::NodeId> seen_;
};

}  // namespace

congest::ProgramFactory pipelined_cycle_program(std::uint32_t length) {
  CSD_CHECK_MSG(length >= 3, "cycle length must be >= 3");
  return [length](std::uint32_t) {
    return std::make_unique<PipelinedCycleProgram>(length);
  };
}

std::uint64_t pipelined_cycle_round_budget(std::uint64_t n,
                                           std::uint32_t length) {
  return n + length + 1;
}

std::uint64_t pipelined_cycle_min_bandwidth(std::uint64_t n,
                                            std::uint32_t length) {
  return wire::bits_for(n) + wire::bits_for(length);
}

congest::RunOutcome detect_cycle_pipelined(const Graph& g,
                                           const PipelinedCycleConfig& cfg,
                                           std::uint64_t bandwidth,
                                           std::uint64_t seed) {
  congest::NetworkConfig net_cfg;
  net_cfg.bandwidth = bandwidth;
  net_cfg.seed = seed;
  net_cfg.max_rounds =
      pipelined_cycle_round_budget(g.num_vertices(), cfg.length) + 1;
  return congest::Supervisor(g, net_cfg, {cfg.amplify})
      .run(pipelined_cycle_program(cfg.length), cfg.repetitions)
      .outcome;
}

}  // namespace csd::detect
