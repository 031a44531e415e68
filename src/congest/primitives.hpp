// Classic CONGEST building blocks: distributed BFS-tree construction,
// convergecast aggregation up the tree, and broadcast down it.
//
// These are the standard O(D)-round primitives every CONGEST library ships.
// No detector runs them (the universal detector, detect/collect.cpp, floods
// edges): bench_micro times them, and the tests cross-check the simulator
// with them (tree distances must equal the centralized BFS oracle).
//
// All three phases run in one program:
//   1. BFS flood from the root (smallest identifier by default):
//      (root id, distance) waves; each node adopts the first wave,
//      breaking ties toward the smallest parent id. O(D) rounds.
//   2. Convergecast: once a node has heard from all children-candidates
//      (one "child"/"non-child" bit per neighbor), it folds its children's
//      aggregates into its own and reports to its parent. O(D) rounds.
//   3. Broadcast: the root floods the final aggregate down the tree.
//
// The aggregate is a user-supplied commutative fold over 64-bit values
// (sum/min/max/count), fixed-width encoded.
#pragma once

#include <cstdint>
#include <functional>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace csd::congest {

enum class Aggregate : std::uint8_t { Sum, Min, Max };

struct BfsAggregateConfig {
  /// Value each node contributes (given its topology index).
  std::function<std::uint64_t(std::uint32_t)> contribution;
  Aggregate fold = Aggregate::Sum;
  /// Bits per value field on the wire.
  std::uint32_t value_bits = 32;
  /// Reject (for harness visibility) if the final aggregate satisfies this
  /// predicate; optional.
  std::function<bool(std::uint64_t)> reject_if;
};

/// Result sink, indexed by topology index; lifetime must cover the run.
struct BfsAggregateResult {
  std::vector<std::uint32_t> distance;  // hops from the root
  std::vector<std::uint32_t> parent;    // topology index; root points to self
  std::vector<std::uint64_t> aggregate; // final fold, broadcast to everyone
  std::vector<bool> reached;
};

/// Program factory: BFS + convergecast + broadcast rooted at the node with
/// the smallest identifier. Requires a connected topology (unreached nodes
/// are reported in the sink, not an error). Rounds: O(D); bandwidth:
/// id bits + value bits + O(1).
ProgramFactory bfs_aggregate_program(const BfsAggregateConfig& cfg,
                                     BfsAggregateResult* result);

/// Round budget for an n-node network (the program self-terminates earlier;
/// this is the max_rounds safety cap).
std::uint64_t bfs_aggregate_round_budget(std::uint64_t n);

std::uint64_t bfs_aggregate_min_bandwidth(std::uint64_t namespace_size,
                                          std::uint32_t value_bits);

/// Convenience: run over g and return the filled sink.
BfsAggregateResult run_bfs_aggregate(const Graph& g,
                                     const BfsAggregateConfig& cfg,
                                     std::uint64_t bandwidth,
                                     std::uint64_t seed);

}  // namespace csd::congest
