#include "detect/collect.hpp"

#include <set>
#include <utility>

#include "detect/fifo.hpp"
#include "graph/algorithms.hpp"
#include "graph/vf2.hpp"
#include "support/check.hpp"
#include "support/wire.hpp"

namespace csd::detect {

namespace {

using IdEdge = std::pair<congest::NodeId, congest::NodeId>;

IdEdge make_id_edge(congest::NodeId a, congest::NodeId b) {
  return a < b ? IdEdge{a, b} : IdEdge{b, a};
}

/// Rebuilds a Graph over the identifier space [0, n) from an edge set.
Graph graph_from_id_edges(std::uint64_t n, const std::set<IdEdge>& edges) {
  Graph g(static_cast<Vertex>(n));
  for (const auto& [a, b] : edges) {
    CSD_CHECK_MSG(a < n && b < n,
                  "collected identifier outside the namespace");
    g.add_edge_if_absent(static_cast<Vertex>(a), static_cast<Vertex>(b));
  }
  return g;
}

class CollectAndCheckProgram final : public congest::NodeProgram {
 public:
  CollectAndCheckProgram(std::uint64_t budget, CollectedChecker checker)
      : budget_(budget), checker_(std::move(checker)) {}

  void on_round(congest::NodeApi& api) override {
    const unsigned id_bits = wire::bits_for(api.namespace_size());
    if (api.round() == 0) {
      CSD_CHECK_MSG(api.bandwidth() == 0 || api.bandwidth() >= 2 * id_bits,
                    "bandwidth too small for edge gossip");
      for (std::uint32_t p = 0; p < api.degree(); ++p)
        learn(make_id_edge(api.id(), api.neighbor_id(p)));
    } else {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        wire::Reader r(*msg);
        const congest::NodeId a = r.u(id_bits);
        const congest::NodeId b = r.u(id_bits);
        learn(make_id_edge(a, b));
      }
    }

    if (api.round() + 1 >= budget_) {
      // Budget chosen by the caller so that queues always drain; a busy
      // queue means the caller's budget was wrong for this graph.
      CSD_CHECK_MSG(queue_.empty(), "edge gossip queue failed to drain");
      if (checker_(graph_from_id_edges(api.namespace_size(), known_)))
        api.reject();
      api.halt();
      return;
    }

    if (!queue_.empty()) {
      const IdEdge e = queue_.front();
      queue_.pop_front();
      wire::Writer w;
      w.u(e.first, id_bits);
      w.u(e.second, id_bits);
      api.broadcast(std::move(w).take());
    }
  }

 private:
  void learn(const IdEdge& e) {
    if (known_.insert(e).second) queue_.push_back(e);
  }

  std::uint64_t budget_;
  CollectedChecker checker_;
  std::set<IdEdge> known_;
  Fifo<IdEdge> queue_;
};

class LocalBallProgram final : public congest::NodeProgram {
 public:
  LocalBallProgram(std::uint32_t radius, CollectedChecker checker)
      : radius_(radius), checker_(std::move(checker)) {}

  void on_round(congest::NodeApi& api) override {
    const unsigned id_bits = wire::bits_for(api.namespace_size());
    CSD_CHECK_MSG(api.bandwidth() == 0,
                  "LOCAL ball collection needs unbounded bandwidth");
    if (api.round() == 0) {
      for (std::uint32_t p = 0; p < api.degree(); ++p)
        known_.insert(make_id_edge(api.id(), api.neighbor_id(p)));
    } else {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        wire::Reader r(*msg);
        const std::uint64_t count = r.varint();
        for (std::uint64_t i = 0; i < count; ++i) {
          const congest::NodeId a = r.u(id_bits);
          const congest::NodeId b = r.u(id_bits);
          known_.insert(make_id_edge(a, b));
        }
      }
    }

    // After absorbing in round t the node knows its radius-(t+1) ball, so
    // the radius-r ball is complete at the end of round r-1: r rounds total.
    if (api.round() + 1 >= radius_) {
      if (checker_(graph_from_id_edges(api.namespace_size(), known_)))
        api.reject();
      api.halt();
      return;
    }

    // Rebroadcast the full known edge set (LOCAL model: unbounded message).
    wire::Writer w;
    w.varint(known_.size());
    for (const auto& [a, b] : known_) {
      w.u(a, id_bits);
      w.u(b, id_bits);
    }
    api.broadcast(std::move(w).take());
  }

 private:
  std::uint32_t radius_;
  CollectedChecker checker_;
  std::set<IdEdge> known_;
};

}  // namespace

congest::ProgramFactory collect_and_check_program(std::uint64_t round_budget,
                                                  CollectedChecker checker) {
  return [round_budget, checker](std::uint32_t) {
    return std::make_unique<CollectAndCheckProgram>(round_budget, checker);
  };
}

std::uint64_t collect_round_budget(std::uint64_t n, std::uint64_t m) {
  return m + n + 2;
}

std::uint64_t collect_min_bandwidth(std::uint64_t n) {
  return 2 * wire::bits_for(n);
}

congest::ProgramFactory local_ball_program(std::uint32_t radius,
                                           CollectedChecker checker) {
  return [radius, checker](std::uint32_t) {
    return std::make_unique<LocalBallProgram>(radius, checker);
  };
}

congest::RunOutcome detect_subgraph_local(const Graph& g,
                                          const Graph& pattern) {
  // Radius |V(H)| suffices: any copy of a connected pattern lies within
  // distance |V(H)|-1 of each of its vertices; for disconnected patterns a
  // single ball need not see every component, so we require connectivity.
  CSD_CHECK_MSG(pattern.num_vertices() == 0 || is_connected(pattern),
                "LOCAL detection wrapper requires a connected pattern");
  const auto radius =
      std::max<std::uint32_t>(1, pattern.num_vertices());
  congest::NetworkConfig cfg;
  cfg.bandwidth = 0;  // LOCAL
  cfg.max_rounds = radius + 2;
  const Graph pattern_copy = pattern;
  return congest::run_congest(
      g, cfg, local_ball_program(radius, [pattern_copy](const Graph& ball) {
        return contains_subgraph(ball, pattern_copy);
      }));
}

congest::RunOutcome detect_by_collection(const Graph& g,
                                         const CollectedChecker& checker,
                                         std::uint64_t bandwidth,
                                         std::uint64_t seed) {
  congest::NetworkConfig cfg;
  cfg.bandwidth = bandwidth;
  cfg.seed = seed;
  const std::uint64_t budget =
      collect_round_budget(g.num_vertices(), g.num_edges());
  cfg.max_rounds = budget + 1;
  return congest::run_congest(g, cfg,
                              collect_and_check_program(budget, checker));
}

}  // namespace csd::detect
