// K_s detection in CONGEST via neighborhood exchange ([10]-style, cited by
// the paper as the O(n)-round upper bound for cliques).
//
// Every node announces its degree, then streams its sorted adjacency
// identifier list to all neighbors, B bits per round. Once a node has every
// neighbor's list it knows the full induced graph on its neighborhood and
// checks locally whether it closes a K_s (a K_{s-1} among its neighbors).
// Round complexity: O(Δ·log n / B + 1); each node halts as soon as it has
// sent and received everything, so sparse graphs finish fast.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace csd::detect {

/// Program factory for K_s detection (s >= 2). Deterministic.
congest::ProgramFactory clique_detect_program(std::uint32_t s);

std::uint64_t clique_detect_min_bandwidth(std::uint64_t n);

/// Worst-case round budget on an n-node graph of max degree `max_degree`.
std::uint64_t clique_detect_round_budget(std::uint64_t n,
                                         std::uint64_t max_degree,
                                         std::uint64_t bandwidth);

/// End-to-end run.
congest::RunOutcome detect_clique(const Graph& g, std::uint32_t s,
                                  std::uint64_t bandwidth, std::uint64_t seed);

}  // namespace csd::detect
