// Tests for the deterministic parallel run driver and the amplified runs
// built on it: bit-identical outcomes across jobs counts, in-order
// streaming within a bounded window, exception determinism, and the
// Supervisor's early-exit cut and repetition-aggregation rules.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/run_batch.hpp"
#include "congest/supervisor.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

/// Rejects iff the node rng's first draw is even (~1/2 per node per seed),
/// then halts: one round per run, verdict a pure function of the seed.
class CoinReject final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.rng()() % 2 == 0) api.reject();
    api.halt();
  }
};

ProgramFactory coin_factory() {
  return [](std::uint32_t) { return std::make_unique<CoinReject>(); };
}

/// Always rejects in round 0, never halts (runs into the round cap).
class RejectAndStall final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.round() == 0) api.reject();
  }
};

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
  EXPECT_EQ(a.metrics.max_message_bits, b.metrics.max_message_bits);
  EXPECT_EQ(a.metrics.bits_sent_by_node, b.metrics.bits_sent_by_node);
  EXPECT_EQ(a.metrics.repetitions_executed, b.metrics.repetitions_executed);
  EXPECT_EQ(a.metrics.repetitions_skipped, b.metrics.repetitions_skipped);
  EXPECT_EQ(a.faults.detected_by_survivors, b.faults.detected_by_survivors);
  EXPECT_EQ(a.faults.crashed_nodes, b.faults.crashed_nodes);
  EXPECT_EQ(a.faults.stalled_nodes, b.faults.stalled_nodes);
  EXPECT_EQ(a.faults.violations.size(), b.faults.violations.size());
}

// ------------------------------------------------------------- RunBatch --
TEST(RunBatch, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware_concurrency, at least one
}

TEST(RunBatch, ForEachIndexCoversEveryIndexOnce) {
  for (const unsigned jobs : {1u, 4u}) {
    std::vector<int> hits(100, 0);
    RunBatch(jobs).for_each_index(hits.size(),
                                  [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

/// Every outcome `stream` hands over at `jobs` workers, in index order,
/// for runs of `net` with seeds derive_seed(seed, i).
std::vector<RunOutcome> stream_all(unsigned jobs, const Network& net,
                                   const ProgramFactory& factory,
                                   std::uint64_t seed, std::uint32_t count) {
  std::vector<RunOutcome> got;
  RunBatch(jobs).stream(
      count,
      [&](std::uint32_t i) { return net.run(factory, derive_seed(seed, i)); },
      [&](std::uint32_t i, RunOutcome&& outcome) {
        EXPECT_EQ(i, got.size());
        got.push_back(std::move(outcome));
        return true;
      });
  return got;
}

/// The amplified aggregate of `reps` repetitions at `jobs` workers.
RunOutcome amplified(const Graph& g, const NetworkConfig& cfg,
                     const ProgramFactory& factory, std::uint32_t reps,
                     unsigned jobs = 1, bool early_exit = true) {
  SupervisorConfig sup;
  sup.jobs = jobs;
  sup.early_exit = early_exit;
  return Supervisor(g, cfg, sup).run(factory, reps).outcome;
}

TEST(RunBatch, StreamIsBitIdenticalAcrossJobsCounts) {
  NetworkConfig cfg;
  cfg.seed = 9;
  const Network net(build::path(2), cfg);
  const auto factory = coin_factory();
  const auto reference = stream_all(1, net, factory, 9, 24);
  ASSERT_EQ(reference.size(), 24u);
  for (const unsigned jobs : {4u, 0u}) {
    const auto result = stream_all(jobs, net, factory, 9, 24);
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t i = 0; i < result.size(); ++i)
      expect_same_outcome(result[i], reference[i]);
  }
}

TEST(RunBatch, EarlyExitCutsAtLowestDetectingIndex) {
  const Graph g = build::path(2);
  const auto factory = coin_factory();
  const std::uint32_t reps = 24;

  // Sequential reference: the lowest-indexed detecting repetition under
  // the documented seed schedule, for the first seed from 31 on whose cut
  // lands past repetition 1 (so parallel workers run on both sides of it).
  NetworkConfig cfg;
  std::uint32_t first = reps;
  for (std::uint64_t seed = 31; seed < 300 && (first < 2 || first == reps);
       ++seed) {
    cfg.seed = seed;
    const Network net(g, cfg);
    first = reps;
    for (std::uint32_t i = 0; i < reps && first == reps; ++i)
      if (net.run(factory, derive_seed(seed, 0x5eedULL + i)).detected)
        first = i;
  }
  ASSERT_TRUE(first >= 2 && first < reps) << "no seed cuts past rep 1";

  for (const unsigned jobs : {1u, 4u, 0u}) {
    SupervisorConfig sup;
    sup.jobs = jobs;
    const SupervisedResult result = Supervisor(g, cfg, sup).run(factory, reps);
    EXPECT_EQ(result.outcome.metrics.repetitions_executed, first + 1);
    EXPECT_EQ(result.outcome.metrics.repetitions_skipped, reps - first - 1);
    EXPECT_TRUE(result.outcome.detected);
    // Only repetitions 0..first were merged: each ran one round.
    EXPECT_EQ(result.outcome.metrics.rounds, first + 1);
    ASSERT_NE(result.checkpoint, nullptr);
    EXPECT_EQ(result.checkpoint->amplified.next_repetition, first + 1);
  }
}

TEST(RunBatch, StreamHandsOutcomesOverInOrderWithinABoundedWindow) {
  NetworkConfig cfg;
  cfg.seed = 9;
  const Network net(build::path(2), cfg);
  const auto factory = coin_factory();
  const auto reference = stream_all(1, net, factory, 9, 24);

  for (const unsigned jobs : {1u, 4u}) {
    // The consumer stops after 20 outcomes; no worker may start a task
    // more than 2 * jobs past the last one consumed (+1: the one the
    // consumer holds), which is what bounds the outcomes held.
    std::atomic<std::uint32_t> consumed{0};
    std::atomic<bool> ran_ahead{false};
    std::vector<RunOutcome> got;
    const std::uint32_t n = RunBatch(jobs).stream(
        24,
        [&](std::uint32_t i) {
          if (i > consumed.load() + 2 * jobs) ran_ahead = true;
          return net.run(factory, derive_seed(9, i));
        },
        [&](std::uint32_t i, RunOutcome&& outcome) {
          EXPECT_EQ(i, got.size());
          got.push_back(std::move(outcome));
          consumed = i + 1;
          return i + 1 < 20;
        });
    EXPECT_EQ(n, 20u);
    EXPECT_FALSE(ran_ahead) << "jobs " << jobs;
    ASSERT_EQ(got.size(), 20u);
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_same_outcome(got[i], reference[i]);
  }
}

TEST(RunBatch, RethrowsLowestIndexedExceptionDeterministically) {
  // Throws (fault-free runs propagate program exceptions) with a message
  // derived from the node rng: which task's message surfaces identifies
  // which exception won.
  class SeedThrow final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      const auto draw = api.rng()();
      CSD_CHECK_MSG(draw % 4 != 0, "boom " << draw);
      api.halt();
    }
  };
  NetworkConfig cfg;
  cfg.seed = 3;
  const Network net(build::path(2), cfg);
  const ProgramFactory factory = [](std::uint32_t) {
    return std::make_unique<SeedThrow>();
  };
  const auto first_failure = [&](unsigned jobs) {
    try {
      stream_all(jobs, net, factory, 3, 24);
    } catch (const CheckFailure& failure) {
      return std::string(failure.what());
    }
    return std::string();
  };

  const std::string reference = first_failure(1);
  ASSERT_FALSE(reference.empty()) << "seed 3 must produce a throwing run";
  for (const unsigned jobs : {4u, 0u})
    EXPECT_EQ(first_failure(jobs), reference);
}

// ---------------------------------------------------- amplified runs --
/// The documented per-field aggregation rule, applied by hand to a
/// sequential fold of run_congest outcomes with the derived-seed schedule.
RunOutcome manual_fold(const Graph& g, const NetworkConfig& cfg,
                       const ProgramFactory& factory, std::uint32_t reps) {
  RunOutcome agg;
  agg.completed = true;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    NetworkConfig rep_cfg = cfg;
    rep_cfg.seed = derive_seed(cfg.seed, 0x5eedULL + rep);
    const auto rep_outcome = run_congest(g, rep_cfg, factory);
    agg.completed &= rep_outcome.completed;
    agg.detected |= rep_outcome.detected;
    if (agg.verdicts.empty()) {
      agg.verdicts = rep_outcome.verdicts;
    } else {
      for (std::size_t v = 0; v < agg.verdicts.size(); ++v)
        if (rep_outcome.verdicts[v] == Verdict::Reject)
          agg.verdicts[v] = Verdict::Reject;
    }
    agg.metrics.rounds += rep_outcome.metrics.rounds;
    agg.metrics.messages += rep_outcome.metrics.messages;
    agg.metrics.total_bits += rep_outcome.metrics.total_bits;
    agg.metrics.max_message_bits = std::max(
        agg.metrics.max_message_bits, rep_outcome.metrics.max_message_bits);
    if (agg.metrics.bits_sent_by_node.empty())
      agg.metrics.bits_sent_by_node.resize(
          rep_outcome.metrics.bits_sent_by_node.size(), 0);
    for (std::size_t v = 0; v < agg.metrics.bits_sent_by_node.size(); ++v)
      agg.metrics.bits_sent_by_node[v] +=
          rep_outcome.metrics.bits_sent_by_node[v];
    agg.faults.detected_by_survivors |=
        rep_outcome.faults.detected_by_survivors;
  }
  agg.metrics.repetitions_executed = reps;
  return agg;
}

TEST(RunAmplified, MatchesManualFoldOfPerRepetitionRuns) {
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.seed = 12;
  const auto factory = coin_factory();
  const std::uint32_t reps = 16;
  const auto expected = manual_fold(g, cfg, factory, reps);

  for (const unsigned jobs : {1u, 4u, 0u})
    expect_same_outcome(amplified(g, cfg, factory, reps, jobs, false),
                        expected);
}

TEST(RunAmplified, EarlyExitAccountsExecutedAndSkipped) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.seed = 5;
  const auto factory = coin_factory();
  const std::uint32_t reps = 16;

  // Sequential reference: the first detecting repetition under the
  // documented seed schedule.
  std::uint32_t first = reps;
  for (std::uint32_t rep = 0; rep < reps && first == reps; ++rep) {
    NetworkConfig rep_cfg = cfg;
    rep_cfg.seed = derive_seed(cfg.seed, 0x5eedULL + rep);
    if (run_congest(g, rep_cfg, factory).detected) first = rep;
  }
  ASSERT_LT(first, reps) << "seed 5 must detect within 16 repetitions";

  const auto reference = amplified(g, cfg, factory, reps);  // early exit on
  EXPECT_TRUE(reference.detected);
  EXPECT_EQ(reference.metrics.repetitions_executed, first + 1);
  EXPECT_EQ(reference.metrics.repetitions_skipped, reps - first - 1);
  for (const unsigned jobs : {4u, 0u})
    expect_same_outcome(amplified(g, cfg, factory, reps, jobs), reference);
}

TEST(RunAmplified, DetectionInEarlyRepetitionSurvivesAggregation) {
  // Regression: the aggregate used to keep only the LAST repetition's
  // verdicts/completed/faults, so a detection in repetition 0 whose final
  // repetition came up clean was silently lost. Find a seed whose first
  // repetition detects and whose last does not, then check with and
  // without early exit.
  const Graph g = build::path(2);
  const auto factory = coin_factory();
  const std::uint32_t reps = 8;
  NetworkConfig cfg;
  bool found = false;
  for (std::uint64_t seed = 1; seed < 200 && !found; ++seed) {
    const auto rep_detected = [&](std::uint32_t rep) {
      NetworkConfig rep_cfg;
      rep_cfg.seed = derive_seed(seed, 0x5eedULL + rep);
      return run_congest(g, rep_cfg, factory).detected;
    };
    if (rep_detected(0) && !rep_detected(reps - 1)) {
      cfg.seed = seed;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  EXPECT_TRUE(amplified(g, cfg, factory, reps, 1, false).detected);
  const auto eager = amplified(g, cfg, factory, reps);
  EXPECT_TRUE(eager.detected);
  EXPECT_EQ(eager.metrics.repetitions_executed, 1u);  // cut at repetition 0
  EXPECT_EQ(eager.metrics.repetitions_skipped, reps - 1);
}

TEST(RunAmplified, FaultReportsConcatenateAcrossRepetitions) {
  // A crash plan fires in every repetition; the combined report must carry
  // one crash entry per executed repetition (concatenated, not clobbered
  // by the last repetition), and completed must AND across repetitions.
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.seed = 2;
  cfg.max_rounds = 4;
  cfg.faults.crashes.push_back({0, 1});  // node 0 dies after round 0
  const ProgramFactory factory = [](std::uint32_t) {
    return std::make_unique<RejectAndStall>();
  };

  const std::uint32_t reps = 3;
  for (const unsigned jobs : {1u, 4u}) {
    const auto outcome = amplified(g, cfg, factory, reps, jobs, false);
    EXPECT_TRUE(outcome.detected);
    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.metrics.repetitions_executed, reps);
    EXPECT_EQ(outcome.faults.crashed_nodes.size(), reps);
  }
}

}  // namespace
}  // namespace csd::congest
