// Constant-round tree detection via color coding (the paper cites [12] for
// a deterministic constant-round algorithm; we implement the classic
// randomized color-coding DP, amplified by repetitions).
//
// Fix a tree H on k vertices, rooted at vertex 0. Every network node draws
// a color in [k]; we look for a *colorful* copy in which the node playing
// H-vertex h has color h. Bottom-up DP over H's depth levels: node v learns
// whether it can root each H-subtree, one bitmap broadcast (k bits) per
// level. Round complexity: height(H) + 2 per repetition — O(1) for fixed H.
// Per-repetition success for an existing copy is at least k!/k^k >= e^{-k};
// rejection always certifies a real copy.
#pragma once

#include <cstdint>

#include "congest/supervisor.hpp"
#include "graph/graph.hpp"

namespace csd::detect {

struct TreeDetectConfig {
  /// The pattern; must be a tree (checked). Rooted at vertex 0.
  Graph tree;
  std::uint32_t repetitions = 1;
  /// How repetitions are driven: worker threads + early exit after the
  /// first rejecting repetition. Results are jobs-count independent.
  congest::AmplifyOptions amplify;
};

congest::ProgramFactory tree_detect_program(const Graph& tree);

/// Rounds one repetition takes for this tree.
std::uint64_t tree_detect_round_budget(const Graph& tree);

/// Bits per message (the subtree bitmap).
std::uint64_t tree_detect_min_bandwidth(const Graph& tree);

congest::RunOutcome detect_tree(const Graph& g, const TreeDetectConfig& cfg,
                                std::uint64_t bandwidth, std::uint64_t seed);

}  // namespace csd::detect
