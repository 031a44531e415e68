// Weighted cycle detection — the problem behind the first near-quadratic
// CONGEST lower bounds ([CKP17] = reference [8], discussed in §1.2): given
// a target W, decide whether the graph has a cycle of length exactly L and
// total weight exactly W.
//
// The natural algorithm is the color-coded pipelined BFS of
// detect/pipelined_cycle with weight-accumulating tokens
// (origin, hop, weight-so-far). The price of the weights is visible in the
// model: tokens with distinct accumulated weights cannot be deduplicated,
// so up to W+1 tokens per origin pipe through every node and the round
// budget grows to O(n·(W+1) + L) — for W = poly(n) this is the
// near-quadratic regime, which is exactly why [8] could prove Ω̃(n²)
// hardness for this problem while the unweighted version stays O(n).
// (Theorem 1.2 of our paper then removed the weights from the superlinear
// story.)
#pragma once

#include <cstdint>
#include <functional>

#include "congest/supervisor.hpp"
#include "graph/graph.hpp"

namespace csd::detect {

/// Symmetric edge-weight oracle over topology indices (ids == indices).
using EdgeWeightFn = std::function<std::uint64_t(Vertex, Vertex)>;

struct WeightedCycleConfig {
  std::uint32_t length = 4;       // L >= 3
  std::uint64_t target_weight = 0;  // W
  /// Upper bound on any single accumulated weight (wire width); accumulated
  /// weights above target_weight are pruned, so target_weight suffices.
  std::uint32_t repetitions = 1;
  /// How repetitions are driven: worker threads + early exit after the
  /// first rejecting repetition. Results are jobs-count independent.
  congest::AmplifyOptions amplify;
};

congest::ProgramFactory weighted_cycle_program(const WeightedCycleConfig& cfg,
                                               EdgeWeightFn weight);

/// Round budget: tokens cannot be deduplicated across weights, so the
/// pipeline depth is n·(W+1) + L + 1 — the weight blow-up in the open.
std::uint64_t weighted_cycle_round_budget(std::uint64_t n,
                                          const WeightedCycleConfig& cfg);

std::uint64_t weighted_cycle_min_bandwidth(std::uint64_t namespace_size,
                                           const WeightedCycleConfig& cfg);

congest::RunOutcome detect_weighted_cycle(const Graph& g,
                                          const WeightedCycleConfig& cfg,
                                          const EdgeWeightFn& weight,
                                          std::uint64_t bandwidth,
                                          std::uint64_t seed);

}  // namespace csd::detect
