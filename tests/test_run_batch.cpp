// Tests for the deterministic parallel run driver: bit-identical outcomes
// across jobs counts, the early-exit cut, in-order streaming within a
// bounded window, exception determinism, and the repetition-aggregation
// rules of run_amplified.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/run_batch.hpp"
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
  EXPECT_EQ(a.transcript.size(), b.transcript.size());
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

TEST(RunBatch, ExecuteIsBitIdenticalAcrossJobsCounts) {
  NetworkConfig cfg;
  cfg.seed = 9;
  const Network net(build::path(2), cfg);
  const auto factory = coin_factory();
  std::vector<RunBatch::Task> tasks;
  for (std::uint32_t i = 0; i < 24; ++i)
    tasks.push_back({&net, &factory, derive_seed(9, i)});

  const auto reference = RunBatch(1).execute(tasks);
  ASSERT_EQ(reference.outcomes.size(), tasks.size());
  EXPECT_EQ(reference.executed, tasks.size());
  EXPECT_EQ(reference.skipped, 0u);
  for (const unsigned jobs : {4u, 0u}) {
    const auto result = RunBatch(jobs).execute(tasks);
    ASSERT_EQ(result.outcomes.size(), tasks.size());
    EXPECT_EQ(result.executed, reference.executed);
    EXPECT_EQ(result.skipped, reference.skipped);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      ASSERT_TRUE(result.outcomes[i].has_value());
      expect_same_outcome(*result.outcomes[i], *reference.outcomes[i]);
    }
  }
}

TEST(RunBatch, EarlyExitCutsAtLowestDetectingIndex) {
  NetworkConfig cfg;
  cfg.seed = 31;
  const Network net(build::path(2), cfg);
  const auto factory = coin_factory();
  std::vector<RunBatch::Task> tasks;
  for (std::uint32_t i = 0; i < 24; ++i)
    tasks.push_back({&net, &factory, derive_seed(31, i)});

  // Sequential reference: the lowest-indexed detecting task.
  std::size_t first = tasks.size();
  for (std::size_t i = 0; i < tasks.size() && first == tasks.size(); ++i)
    if (net.run(factory, tasks[i].seed).detected) first = i;
  ASSERT_LT(first, tasks.size()) << "seed 31 must produce a detection";

  for (const unsigned jobs : {1u, 4u, 0u}) {
    const auto result = RunBatch(jobs).execute(tasks, true);
    EXPECT_EQ(result.executed, first + 1);
    EXPECT_EQ(result.skipped, tasks.size() - first - 1);
    for (std::size_t i = 0; i < tasks.size(); ++i)
      EXPECT_EQ(result.outcomes[i].has_value(), i <= first) << "index " << i;
    EXPECT_TRUE(result.outcomes[first]->detected);
    for (std::size_t i = 0; i < first; ++i)
      EXPECT_FALSE(result.outcomes[i]->detected);
  }
}

TEST(RunBatch, StreamHandsOutcomesOverInOrderWithinABoundedWindow) {
  NetworkConfig cfg;
  cfg.seed = 9;
  const Network net(build::path(2), cfg);
  const auto factory = coin_factory();
  std::vector<RunBatch::Task> tasks;
  for (std::uint32_t i = 0; i < 24; ++i)
    tasks.push_back({&net, &factory, derive_seed(9, i)});
  const auto reference = RunBatch(1).execute(tasks);

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
          return tasks[i];
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
      expect_same_outcome(got[i], *reference.outcomes[i]);
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
  std::vector<RunBatch::Task> tasks;
  for (std::uint32_t i = 0; i < 24; ++i)
    tasks.push_back({&net, &factory, derive_seed(3, i)});

  std::string reference;
  try {
    RunBatch(1).execute(tasks);
  } catch (const CheckFailure& failure) {
    reference = failure.what();
  }
  ASSERT_FALSE(reference.empty()) << "seed 3 must produce a throwing task";
  for (const unsigned jobs : {4u, 0u}) {
    std::string parallel;
    try {
      RunBatch(jobs).execute(tasks);
    } catch (const CheckFailure& failure) {
      parallel = failure.what();
    }
    EXPECT_EQ(parallel, reference);
  }
}

// -------------------------------------------------------- run_amplified --
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

  AmplifyOptions options;
  options.early_exit = false;
  for (const unsigned jobs : {1u, 4u, 0u}) {
    options.jobs = jobs;
    const auto outcome = run_amplified(g, cfg, factory, reps, options);
    expect_same_outcome(outcome, expected);
  }
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

  AmplifyOptions options;  // early_exit defaults on
  const auto reference = run_amplified(g, cfg, factory, reps, options);
  EXPECT_TRUE(reference.detected);
  EXPECT_EQ(reference.metrics.repetitions_executed, first + 1);
  EXPECT_EQ(reference.metrics.repetitions_skipped, reps - first - 1);
  for (const unsigned jobs : {4u, 0u}) {
    options.jobs = jobs;
    expect_same_outcome(run_amplified(g, cfg, factory, reps, options),
                        reference);
  }
}

TEST(RunAmplified, DetectionInEarlyRepetitionSurvivesAggregation) {
  // Regression: the aggregate used to keep only the LAST repetition's
  // verdicts/completed/faults, so a detection in repetition 0 whose final
  // repetition came up clean was silently lost. Find a seed whose first
  // repetition detects and whose last does not, then check both drivers.
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

  AmplifyOptions all;
  all.early_exit = false;
  EXPECT_TRUE(run_amplified(g, cfg, factory, reps, all).detected);
  const auto eager = run_amplified(g, cfg, factory, reps);
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

  AmplifyOptions options;
  options.early_exit = false;
  const std::uint32_t reps = 3;
  for (const unsigned jobs : {1u, 4u}) {
    options.jobs = jobs;
    const auto outcome = run_amplified(g, cfg, factory, reps, options);
    EXPECT_TRUE(outcome.detected);
    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.metrics.repetitions_executed, reps);
    EXPECT_EQ(outcome.faults.crashed_nodes.size(), reps);
  }
}

}  // namespace
}  // namespace csd::congest
