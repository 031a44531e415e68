#include "comm/cut_simulator.hpp"

#include <algorithm>
#include <utility>

#include "congest/run_batch.hpp"
#include "support/check.hpp"

namespace csd::comm {

namespace {

// Crossing-bit accumulator for one run. Per-round bits are keyed by round
// number (not by "did the round change since the last message"), so a round
// that reappears after another — as async delivery order permits — keeps
// accumulating into its own bucket instead of resetting a shared one.
struct CutAccum {
  std::uint64_t bits_alice_to_bob = 0;
  std::uint64_t bits_bob_to_alice = 0;
  std::uint64_t crossing_messages = 0;
  std::vector<std::uint64_t> round_bits;

  std::uint64_t max_bits_per_round() const {
    std::uint64_t best = 0;
    for (const std::uint64_t b : round_bits) best = std::max(best, b);
    return best;
  }
};

void account(CutAccum& accum, const std::vector<Owner>& owner,
             std::uint64_t round, std::uint32_t src, std::uint32_t dst,
             std::uint64_t bits) {
  const Owner from = owner[src];
  const Owner to = owner[dst];
  // Alice must tell Bob everything her private nodes send into Bob's
  // private nodes or the shared part (Bob simulates both), and vice versa.
  const bool a_to_b = from == Owner::Alice && to != Owner::Alice;
  const bool b_to_a = from == Owner::Bob && to != Owner::Bob;
  if (!a_to_b && !b_to_a) return;
  if (round >= accum.round_bits.size()) accum.round_bits.resize(round + 1, 0);
  accum.round_bits[round] += bits;
  ++accum.crossing_messages;
  if (a_to_b)
    accum.bits_alice_to_bob += bits;
  else
    accum.bits_bob_to_alice += bits;
}

// The run's message observer: charges each message to `accum`.
congest::MessageObserver charge_to(CutAccum& accum,
                                   const std::vector<Owner>& owner) {
  return [&accum, &owner](std::uint64_t round, Vertex src, Vertex dst,
                          const BitVec& payload) {
    account(accum, owner, round, src, dst, payload.size());
  };
}

}  // namespace

std::uint64_t count_cut_edges(const Graph& topology,
                              const std::vector<Owner>& owner) {
  CSD_CHECK_MSG(owner.size() == topology.num_vertices(),
                "ownership partition size mismatch");
  std::uint64_t cut = 0;
  for (Vertex u = 0; u < topology.num_vertices(); ++u) {
    for (const Vertex v : topology.neighbors(u)) {
      if (v < u) continue;  // each undirected edge once, from its lower end
      const bool priv_u = owner[u] != Owner::Shared;
      const bool priv_v = owner[v] != Owner::Shared;
      // An edge is on the simulation cut if a message along it can carry
      // information a player is missing: any edge leaving a private part.
      if ((priv_u || priv_v) && owner[u] != owner[v]) ++cut;
    }
  }
  return cut;
}

CutCost simulate_across_cut(const Graph& topology,
                            const std::vector<Owner>& owner,
                            const congest::NetworkConfig& config,
                            const congest::ProgramFactory& factory) {
  CutCost cost;
  cost.cut_edges = count_cut_edges(topology, owner);

  CutAccum accum;
  const congest::Network net(topology, config);
  cost.outcome = net.run(factory, config.seed, charge_to(accum, owner));
  cost.bits_alice_to_bob = accum.bits_alice_to_bob;
  cost.bits_bob_to_alice = accum.bits_bob_to_alice;
  cost.crossing_messages = accum.crossing_messages;
  cost.max_bits_per_round = accum.max_bits_per_round();
  return cost;
}

CutCostBatch simulate_across_cut_batch(const Graph& topology,
                                       const std::vector<Owner>& owner,
                                       const congest::NetworkConfig& config,
                                       const congest::ProgramFactory& factory,
                                       const std::vector<std::uint64_t>& seeds,
                                       unsigned jobs) {
  CutCostBatch batch;
  batch.cut_edges = count_cut_edges(topology, owner);
  batch.seeds = seeds;
  const std::size_t n = seeds.size();
  batch.bits_alice_to_bob.resize(n);
  batch.bits_bob_to_alice.resize(n);
  batch.crossing_messages.resize(n);
  batch.max_bits_per_round.resize(n);
  batch.rounds.resize(n);
  batch.detected.resize(n);
  batch.completed.resize(n);
  if (n == 0) return batch;

  // One CSR, edge-table and partition build for the whole batch: this
  // amortization is the point of the API.
  const congest::Network net(topology, config);
  std::vector<CutAccum> accums(n);

  const congest::RunBatch runner(jobs);
  runner.for_each_index(n, [&](std::size_t i) {
    const congest::RunOutcome outcome =
        net.run(factory, seeds[i], charge_to(accums[i], owner));
    batch.bits_alice_to_bob[i] = accums[i].bits_alice_to_bob;
    batch.bits_bob_to_alice[i] = accums[i].bits_bob_to_alice;
    batch.crossing_messages[i] = accums[i].crossing_messages;
    batch.max_bits_per_round[i] = accums[i].max_bits_per_round();
    batch.rounds[i] = outcome.metrics.rounds;
    batch.detected[i] = outcome.detected ? 1 : 0;
    batch.completed[i] = outcome.completed ? 1 : 0;
  });
  return batch;
}

congest::ProgramFactory random_traffic_program(std::uint64_t rounds) {
  class Traffic final : public congest::NodeProgram {
   public:
    explicit Traffic(std::uint64_t rounds) : rounds_(rounds) {}

    void on_round(congest::NodeApi& api) override {
      if (api.round() >= rounds_) {
        api.halt();
        return;
      }
      const std::uint64_t cap =
          api.bandwidth() == 0 ? 64 : api.bandwidth();
      for (std::uint32_t port = 0; port < api.degree(); ++port) {
        const std::uint64_t len = 1 + api.rng().below(cap);
        BitVec payload = api.scratch();
        std::uint64_t remaining = len;
        while (remaining > 0) {
          const unsigned chunk =
              remaining > 64 ? 64u : static_cast<unsigned>(remaining);
          payload.append_bits(api.rng()(), chunk);
          remaining -= chunk;
        }
        api.send(port, std::move(payload));
      }
    }

   private:
    std::uint64_t rounds_;
  };
  return [rounds](std::uint32_t) { return std::make_unique<Traffic>(rounds); };
}

}  // namespace csd::comm
