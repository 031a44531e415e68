#include "detect/tree_detect.hpp"

#include <algorithm>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/check.hpp"
#include "support/wire.hpp"

namespace csd::detect {

namespace {

struct RootedTree {
  std::uint32_t k = 0;
  std::uint32_t height = 0;                     // max depth
  std::vector<std::uint32_t> depth;             // per H-vertex
  std::vector<std::vector<Vertex>> children;    // rooted at 0
};

RootedTree root_tree(const Graph& tree) {
  CSD_CHECK_MSG(tree.num_vertices() >= 1 &&
                    tree.num_edges() + 1 == tree.num_vertices() &&
                    is_connected(tree),
                "pattern must be a tree");
  RootedTree rt;
  rt.k = tree.num_vertices();
  rt.depth = bfs_distances(tree, 0);
  rt.children.resize(rt.k);
  for (Vertex h = 0; h < rt.k; ++h) {
    rt.height = std::max(rt.height, rt.depth[h]);
    for (const Vertex c : tree.neighbors(h))
      if (rt.depth[c] == rt.depth[h] + 1) rt.children[h].push_back(c);
  }
  return rt;
}

class TreeDetectProgram final : public congest::NodeProgram {
 public:
  explicit TreeDetectProgram(RootedTree rt) : rt_(std::move(rt)) {}

  void on_round(congest::NodeApi& api) override {
    CSD_CHECK_MSG(api.bandwidth() == 0 || api.bandwidth() >= rt_.k,
                  "bandwidth too small for the subtree bitmap");
    api.phase(api.round() == 0         ? "color"
              : api.round() <= rt_.height ? "dp-wave"
                                          : "decide");
    if (api.round() == 0) {
      color_ = static_cast<std::uint32_t>(api.rng().below(rt_.k));
      can_root_.assign(rt_.k, false);
    } else {
      // Union of neighbor bitmaps from the previous round.
      neighbor_any_.assign(rt_.k, false);
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        if (msg == nullptr) continue;
        for (std::uint32_t h = 0; h < rt_.k; ++h)
          if (msg->get(h)) neighbor_any_[h] = true;
      }
    }

    // Round t computes H-vertices at depth height - t. Kept 64-bit: a
    // truncated round counter would alias round 2^32 + r onto round r.
    const std::uint64_t t = api.round();
    if (t <= rt_.height) {
      const auto level = static_cast<std::uint32_t>(rt_.height - t);
      for (std::uint32_t h = 0; h < rt_.k; ++h) {
        if (rt_.depth[h] != level || color_ != h) continue;
        bool ok = true;
        for (const Vertex child : rt_.children[h])
          ok &= t > 0 && neighbor_any_[child];
        // Depth-(height) vertices have no children, so ok stays true.
        can_root_[h] = ok;
      }
      BitVec bitmap(rt_.k);
      for (std::uint32_t h = 0; h < rt_.k; ++h)
        if (can_root_[h]) bitmap.set(h);
      api.broadcast(bitmap);
      return;
    }

    // One extra round so the root-level computation of other nodes settles;
    // then decide and halt.
    if (can_root_[0]) api.reject();
    api.halt();
  }

 private:
  RootedTree rt_;
  std::uint32_t color_ = 0;
  std::vector<bool> can_root_;
  std::vector<bool> neighbor_any_;
};

}  // namespace

congest::ProgramFactory tree_detect_program(const Graph& tree) {
  const RootedTree rt = root_tree(tree);
  return [rt](std::uint32_t) {
    return std::make_unique<TreeDetectProgram>(rt);
  };
}

std::uint64_t tree_detect_round_budget(const Graph& tree) {
  return root_tree(tree).height + 2;
}

std::uint64_t tree_detect_min_bandwidth(const Graph& tree) {
  return tree.num_vertices();
}

congest::RunOutcome detect_tree(const Graph& g, const TreeDetectConfig& cfg,
                                std::uint64_t bandwidth, std::uint64_t seed) {
  congest::NetworkConfig net_cfg;
  net_cfg.bandwidth = bandwidth;
  net_cfg.seed = seed;
  net_cfg.max_rounds = tree_detect_round_budget(cfg.tree) + 1;
  return congest::Supervisor(g, net_cfg, {cfg.amplify})
      .run(tree_detect_program(cfg.tree), cfg.repetitions)
      .outcome;
}

}  // namespace csd::detect
