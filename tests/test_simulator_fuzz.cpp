// Randomized consistency tests ("fuzzing") for the simulator engines:
// programs that send random payloads on random ports must never break the
// accounting invariants, and the two engines must agree on everything
// observable.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "graph/builders.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

/// Sends a random subset of ports a random-length payload each round;
/// rejects with small probability; halts at a per-node random round.
class FuzzProgram final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    Rng& rng = api.rng();
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      if (!rng.chance(2, 3)) continue;
      const std::uint64_t cap = api.bandwidth() == 0 ? 40 : api.bandwidth();
      const auto len = rng.below(cap + 1);
      BitVec payload;
      for (std::uint64_t b = 0; b < len; ++b) payload.push_back(rng.coin());
      api.send(p, std::move(payload));
    }
    if (rng.chance(1, 50)) api.reject();
    if (api.round() >= 3 + rng.below(10)) api.halt();
  }
};

ProgramFactory fuzz_factory() {
  return [](std::uint32_t) { return std::make_unique<FuzzProgram>(); };
}

/// One message as a run's observer saw it.
struct Entry {
  std::uint64_t round;
  Vertex src, dst;
  BitVec payload;
};

/// Run `net` seeded config().seed, collecting every message it sends.
RunOutcome run_recorded(const Network& net, std::vector<Entry>& transcript) {
  return net.run(fuzz_factory(), net.config().seed,
                 [&transcript](std::uint64_t round, Vertex src, Vertex dst,
                               const BitVec& payload) {
                   transcript.push_back({round, src, dst, payload});
                 });
}

TEST(SimulatorFuzz, MetricsAreInternallyConsistent) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = build::gnp(15, 0.3, rng);
    NetworkConfig cfg;
    cfg.bandwidth = 16;
    cfg.seed = 100 + static_cast<std::uint64_t>(trial);
    cfg.max_rounds = 64;

    Network net(g, cfg);
    std::vector<Entry> transcript;
    const auto outcome = run_recorded(net, transcript);
    ASSERT_TRUE(outcome.completed);

    // Observer == metrics == per-node tallies.
    EXPECT_EQ(transcript.size(), outcome.metrics.messages);
    std::uint64_t per_node_sum = 0, transcript_bits = 0;
    for (const auto bits : outcome.metrics.bits_sent_by_node)
      per_node_sum += bits;
    for (const auto& entry : transcript)
      transcript_bits += entry.payload.size();
    EXPECT_EQ(per_node_sum, outcome.metrics.total_bits);
    EXPECT_EQ(transcript_bits, outcome.metrics.total_bits);
    EXPECT_LE(outcome.metrics.max_message_bits, 16u);

    // Verdict aggregation is the OR of per-node rejects.
    bool any_reject = false;
    for (const auto v : outcome.verdicts) any_reject |= v == Verdict::Reject;
    EXPECT_EQ(any_reject, outcome.detected);
  }
}

TEST(SimulatorFuzz, TranscriptSourcesAreRealEdges) {
  Rng rng(2);
  const Graph g = build::gnp(12, 0.35, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 64;
  Network net(g, cfg);
  std::vector<Entry> transcript;
  run_recorded(net, transcript);
  for (const auto& entry : transcript) {
    EXPECT_TRUE(g.has_edge(entry.src, entry.dst))
        << entry.src << "->" << entry.dst;
    EXPECT_LE(entry.payload.size(), 8u);
  }
  // At most one message per directed edge per round.
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>, int>
      count;
  for (const auto& entry : transcript) {
    const auto key = std::make_tuple(entry.round, entry.src, entry.dst);
    EXPECT_EQ(++count[key], 1);
  }
}

TEST(SimulatorFuzz, AsyncAgreesWithSyncOnRandomPrograms) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = build::gnp(12, 0.3, rng);
    const std::uint64_t seed = 500 + static_cast<std::uint64_t>(trial);

    NetworkConfig sync_cfg;
    sync_cfg.bandwidth = 12;
    sync_cfg.seed = seed;
    sync_cfg.max_rounds = 64;
    const auto sync_outcome = run_congest(g, sync_cfg, fuzz_factory());
    ASSERT_TRUE(sync_outcome.completed);

    AsyncConfig async_cfg;
    async_cfg.bandwidth = 12;
    async_cfg.seed = seed;
    async_cfg.max_pulses = 64;
    async_cfg.max_delay = 1 + static_cast<std::uint32_t>(trial) * 2;
    const auto async_outcome = run_async(g, async_cfg, fuzz_factory());
    EXPECT_TRUE(async_outcome.completed);
    EXPECT_EQ(async_outcome.verdicts, sync_outcome.verdicts);
    EXPECT_EQ(async_outcome.payload_bits, sync_outcome.metrics.total_bits);
    EXPECT_EQ(async_outcome.pulses, sync_outcome.metrics.rounds);
  }
}

TEST(SimulatorFuzz, FaultMatrixIsDeterministicAndTerminates) {
  // Sweep a grid of fault environments over both wire disciplines: every
  // combination must terminate within the pulse cap (no hang), and running
  // the same seed twice must reproduce the FaultReport exactly.
  Rng rng(6);
  const double drop_rates[] = {0.0, 0.2, 0.5};
  const double corrupt_rates[] = {0.0, 0.1};
  std::uint64_t combo = 0;
  for (const auto mode : {TransportMode::Raw, TransportMode::Reliable}) {
    for (const double drop : drop_rates) {
      for (const double corrupt : corrupt_rates) {
        for (const bool crash : {false, true}) {
          const Graph g = build::gnp(10, 0.3, rng);
          AsyncConfig cfg;
          cfg.bandwidth = 12;
          cfg.seed = 700 + combo++;
          cfg.max_pulses = 48;
          cfg.max_delay = 3;
          cfg.transport = mode;
          cfg.faults.drop = drop;
          cfg.faults.corrupt = corrupt;
          if (crash) cfg.faults.crashes = {{2, 1}, {7, 2}};
          const auto a = run_async(g, cfg, fuzz_factory());
          const auto b = run_async(g, cfg, fuzz_factory());
          EXPECT_EQ(a.faults, b.faults)
              << "mode=" << static_cast<int>(mode) << " drop=" << drop
              << " corrupt=" << corrupt << " crash=" << crash;
          EXPECT_EQ(a.verdicts, b.verdicts);
          EXPECT_EQ(a.payload_bits, b.payload_bits);
          EXPECT_EQ(a.transport_bits, b.transport_bits);
          EXPECT_LE(a.pulses, 48u);
          if (crash) {
            // A node can stall (drops) or halt before its crash round, so
            // the crash count is only exact on loss-free links.
            EXPECT_LE(a.faults.crashed_nodes.size(), 2u);
            if (drop == 0.0) {
              EXPECT_EQ(a.faults.crashed_nodes.size(), 2u);
            }
          }
        }
      }
    }
  }
}

TEST(SimulatorFuzz, ReliableTransportRestoresFuzzEquivalence) {
  // FuzzProgram exercises data-driven sends, random payload lengths and
  // per-node halting times; the ARQ transport must reproduce the fault-free
  // synchronous outcome under heavy loss anyway.
  Rng rng(8);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const Graph g = build::gnp(12, 0.3, rng);
    NetworkConfig sync_cfg;
    sync_cfg.bandwidth = 12;
    sync_cfg.seed = 800 + trial;
    sync_cfg.max_rounds = 64;
    const auto sync_outcome = run_congest(g, sync_cfg, fuzz_factory());
    ASSERT_TRUE(sync_outcome.completed);

    AsyncConfig cfg;
    cfg.bandwidth = 12;
    cfg.seed = 800 + trial;
    cfg.max_pulses = 64;
    cfg.max_delay = 5;
    cfg.transport = TransportMode::Reliable;
    cfg.faults.drop = 0.3;
    cfg.faults.corrupt = 0.05;
    const auto outcome = run_async(g, cfg, fuzz_factory());
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.verdicts, sync_outcome.verdicts);
    EXPECT_EQ(outcome.payload_bits, sync_outcome.metrics.total_bits);
    EXPECT_EQ(outcome.pulses, sync_outcome.metrics.rounds);
  }
}

TEST(SimulatorFuzz, SyncEngineFaultsAreDeterministicToo) {
  Rng rng(9);
  const Graph g = build::gnp(12, 0.3, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 12;
  cfg.seed = 17;
  cfg.max_rounds = 64;
  cfg.faults.drop = 0.25;
  cfg.faults.corrupt = 0.1;
  cfg.faults.crashes = {{3, 4}};
  const auto a = run_congest(g, cfg, fuzz_factory());
  const auto b = run_congest(g, cfg, fuzz_factory());
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_GT(a.faults.frames_dropped, 0u);
  EXPECT_EQ(a.faults.crashed_nodes, (std::vector<std::uint32_t>{3}));
}

TEST(SimulatorFuzz, DeterministicAcrossRepeatedRuns) {
  Rng rng(4);
  const Graph g = build::gnp(14, 0.25, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 10;
  cfg.seed = 99;
  cfg.max_rounds = 64;
  const auto a = run_congest(g, cfg, fuzz_factory());
  const auto b = run_congest(g, cfg, fuzz_factory());
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
}

}  // namespace
}  // namespace csd::congest
