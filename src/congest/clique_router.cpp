#include "congest/clique_router.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "congest/clique.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace csd::congest {

namespace {

struct Record {
  Vertex final_dst = 0;
  bool at_relay = false;  // next hop is the final destination
  BitVec payload;
};

/// Static per-source queues + per-link load accounting.
struct Plan {
  std::vector<std::map<Vertex, std::deque<Record>>> queues;  // per src
  std::vector<std::vector<BitVec>> local;                    // src == dst
  std::uint64_t max_stage1 = 0;
  std::uint64_t max_stage2 = 0;
};

/// A message's relay is a pure function of (src, dst, seq) and this salt.
constexpr std::uint64_t kRelaySalt = 0x5a17;

Vertex relay_of(Vertex src, Vertex dst, std::uint64_t seq, Vertex n) {
  std::uint64_t key = (static_cast<std::uint64_t>(src) << 40) ^
                      (static_cast<std::uint64_t>(dst) << 16) ^ seq;
  key = derive_seed(key, kRelaySalt);
  return static_cast<Vertex>(key % n);
}

Plan build_plan(const CliqueRouteRequest& request) {
  const Vertex n = request.num_nodes;
  Plan plan;
  plan.queues.resize(n);
  plan.local.resize(n);
  std::map<std::pair<Vertex, Vertex>, std::uint64_t> stage1, stage2;
  std::map<std::pair<Vertex, Vertex>, std::uint64_t> pair_seq;
  for (const auto& message : request.messages) {
    CSD_CHECK_MSG(message.src < n && message.dst < n,
                  "routed message endpoint out of range");
    CSD_CHECK_MSG(message.payload.size() == request.payload_bits,
                  "payload width mismatch: " << message.payload.size()
                                             << " != "
                                             << request.payload_bits);
    if (message.src == message.dst) {
      plan.local[message.src].push_back(message.payload);
      continue;
    }
    const std::uint64_t seq = pair_seq[{message.src, message.dst}]++;
    const Vertex relay = relay_of(message.src, message.dst, seq, n);
    if (relay == message.src) {
      plan.queues[message.src][message.dst].push_back(
          {message.dst, true, message.payload});
      ++stage2[{message.src, message.dst}];
    } else if (relay == message.dst) {
      plan.queues[message.src][message.dst].push_back(
          {message.dst, false, message.payload});
      ++stage1[{message.src, message.dst}];
    } else {
      plan.queues[message.src][relay].push_back(
          {message.dst, false, message.payload});
      ++stage1[{message.src, relay}];
      ++stage2[{relay, message.dst}];
    }
  }
  for (const auto& [link, load] : stage1)
    plan.max_stage1 = std::max(plan.max_stage1, load);
  for (const auto& [link, load] : stage2)
    plan.max_stage2 = std::max(plan.max_stage2, load);
  return plan;
}

std::uint64_t plan_budget(const Plan& plan) {
  // Stage-1 queues drain within max_stage1 rounds; the last relayed record
  // becomes sendable one round later and the merged FIFO then drains within
  // max_stage2 more rounds.
  return plan.max_stage1 + plan.max_stage2 + 3;
}

class RouterProgram final : public NodeProgram {
 public:
  RouterProgram(std::map<Vertex, std::deque<Record>> queues,
                std::uint64_t payload_bits, std::uint64_t budget,
                std::vector<BitVec>* sink)
      : queues_(std::move(queues)),
        payload_bits_(payload_bits),
        budget_(budget),
        sink_(sink) {}

  void on_round(NodeApi& api) override {
    const unsigned id_bits = wire::bits_for(api.network_size());
    const auto self = static_cast<Vertex>(api.id());

    api.phase(api.round() == 0          ? "route-inject"
              : api.round() >= budget_  ? "route-drain"
                                        : "route-relay");
    if (api.round() > 0) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        wire::Reader r(*msg);
        Record record;
        record.at_relay = r.boolean();
        record.final_dst = static_cast<Vertex>(r.u(id_bits));
        record.payload = r.raw(payload_bits_);
        if (record.at_relay || record.final_dst == self) {
          sink_->push_back(std::move(record.payload));
        } else {
          record.at_relay = true;
          queues_[record.final_dst].push_back(std::move(record));
        }
      }
    }

    if (api.round() >= budget_) {
      CSD_CHECK_MSG(queues_.empty(), "router queues failed to drain");
      api.halt();
      return;
    }

    for (auto it = queues_.begin(); it != queues_.end();) {
      auto& [dst, queue] = *it;
      Record record = std::move(queue.front());
      queue.pop_front();
      wire::Writer w;
      w.boolean(record.at_relay);
      w.u(record.final_dst, id_bits);
      w.raw(record.payload);
      api.send(clique_port(self, dst), std::move(w).take());
      it = queue.empty() ? queues_.erase(it) : std::next(it);
    }
  }

 private:
  std::map<Vertex, std::deque<Record>> queues_;
  std::uint64_t payload_bits_;
  std::uint64_t budget_;
  std::vector<BitVec>* sink_;
};

}  // namespace

std::uint64_t clique_route_min_bandwidth(std::uint64_t n,
                                         std::uint64_t payload_bits) {
  return 1 + wire::bits_for(n) + payload_bits;
}

std::uint64_t clique_route_round_budget(const CliqueRouteRequest& request) {
  return plan_budget(build_plan(request));
}

CliqueRouteResult route_in_clique(const CliqueRouteRequest& request) {
  const Vertex n = request.num_nodes;
  CSD_CHECK_MSG(n >= 2, "congested clique needs >= 2 nodes");
  CSD_CHECK_MSG(
      request.bandwidth == 0 ||
          request.bandwidth >=
              clique_route_min_bandwidth(n, request.payload_bits),
      "bandwidth too small for routed records");
  Plan plan = build_plan(request);
  const std::uint64_t budget = plan_budget(plan);

  CliqueRouteResult result;
  result.delivered.assign(n, {});
  result.max_stage1_load = plan.max_stage1;
  result.max_stage2_load = plan.max_stage2;
  for (Vertex v = 0; v < n; ++v)
    for (auto& payload : plan.local[v])
      result.delivered[v].push_back(std::move(payload));

  NetworkConfig cfg;
  cfg.bandwidth = request.bandwidth;
  cfg.max_rounds = budget + 2;
  const auto outcome = run_congested_clique(
      n, cfg, [&](std::uint32_t v) {
        return std::make_unique<RouterProgram>(std::move(plan.queues[v]),
                                               request.payload_bits, budget,
                                               &result.delivered[v]);
      });
  CSD_CHECK_MSG(outcome.completed, "routing did not complete in budget");
  result.rounds = outcome.metrics.rounds;
  result.total_bits = outcome.metrics.total_bits;
  return result;
}

}  // namespace csd::congest
