// Two-party simulation of a CONGEST execution across a vertex partition.
//
// This is the cost-accounting engine of the Theorem 1.2 reduction (§3.3):
// Alice simulates her part V_A plus the shared part U, Bob simulates V_B
// plus U. The only information a player is missing is what the other
// player's private nodes send toward anything the player simulates, so the
// communication cost of simulating one round is exactly the bits carried on
// messages from V_A into V_B ∪ U (Alice→Bob) and from V_B into V_A ∪ U
// (Bob→Alice). Randomness is public (shared seed), which is the setting of
// the randomized disjointness lower bound.
//
// Two entry points share the accounting logic:
//   * simulate_across_cut — one (config, factory, seed) run, one CutCost;
//   * simulate_across_cut_batch — many seeds over ONE Network (one CSR
//     build) and ONE ownership scan, fanned across congest::RunBatch.
//     Per-seed rows land in a structure-of-arrays CutCostBatch, written in
//     seed order, so results are bit-identical at every jobs count.
// Each run charges its messages through its own MessageObserver
// (congest/network.hpp) into its own accumulator, and per-round bits are
// keyed by round number, so a round observed again after another cannot
// undercount max_bits_per_round.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace csd::comm {

enum class Owner : std::uint8_t { Alice, Bob, Shared };

struct CutCost {
  congest::RunOutcome outcome;
  std::uint64_t bits_alice_to_bob = 0;
  std::uint64_t bits_bob_to_alice = 0;
  /// Number of messages that crossed the cut in either direction.
  std::uint64_t crossing_messages = 0;
  /// Maximum crossing bits charged in any single round.
  std::uint64_t max_bits_per_round = 0;
  /// Topology edges with one endpoint private to each player or private/shared
  /// (the structural cut the simulation pays for).
  std::uint64_t cut_edges = 0;

  std::uint64_t total_crossing_bits() const {
    return bits_alice_to_bob + bits_bob_to_alice;
  }
};

/// Edges on the simulation cut of `owner`: one endpoint private to each
/// player, or private on one side and shared on the other. A pure function
/// of (topology, ownership) — every seed of a batch shares it.
std::uint64_t count_cut_edges(const Graph& topology,
                              const std::vector<Owner>& owner);

/// Run `factory` over `topology` and account the two-party simulation cost
/// under the given ownership partition. `owner.size()` must equal the number
/// of vertices. The run is seeded config.seed.
CutCost simulate_across_cut(const Graph& topology,
                            const std::vector<Owner>& owner,
                            const congest::NetworkConfig& config,
                            const congest::ProgramFactory& factory);

/// Per-seed cut costs of a batch, structure-of-arrays: row i is the run with
/// seeds[i]. Full RunOutcomes are deliberately not retained (a batch of
/// thousands of seeds over a 10^5-node frame would hold thousands of verdict
/// vectors); the flags a sweep needs are copied out per seed.
struct CutCostBatch {
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> bits_alice_to_bob;
  std::vector<std::uint64_t> bits_bob_to_alice;
  std::vector<std::uint64_t> crossing_messages;
  std::vector<std::uint64_t> max_bits_per_round;
  std::vector<std::uint64_t> rounds;
  std::vector<std::uint8_t> detected;
  std::vector<std::uint8_t> completed;
  /// Structural cut of (topology, owner): identical for every row.
  std::uint64_t cut_edges = 0;

  std::size_t size() const noexcept { return seeds.size(); }
  std::uint64_t total_crossing_bits(std::size_t i) const {
    return bits_alice_to_bob[i] + bits_bob_to_alice[i];
  }
};

/// Run `factory` once per seed over ONE Network (one CSR build, one table
/// pass, one partition, one ownership scan) and account each run's two-party
/// cost. Rows are written in seed order; with `jobs` > 1 the seeds fan
/// across a congest::RunBatch and the result is bit-identical to jobs == 1
/// (each run is a pure function of its seed; accumulators are per-seed).
CutCostBatch simulate_across_cut_batch(const Graph& topology,
                                       const std::vector<Owner>& owner,
                                       const congest::NetworkConfig& config,
                                       const congest::ProgramFactory& factory,
                                       const std::vector<std::uint64_t>& seeds,
                                       unsigned jobs = 1);

/// Measurement probe for cut-cost sweeps: every node spends `rounds` rounds
/// sending a payload of seed-dependent random length (1..bandwidth bits,
/// 1..64 in the LOCAL model) on every port, then halts. Unlike the
/// structural cut, the crossing-bit total of this probe genuinely varies
/// with the run seed, which is what gives a multi-seed batch nonzero spread
/// for bootstrap error bars.
congest::ProgramFactory random_traffic_program(std::uint64_t rounds);

}  // namespace csd::comm
