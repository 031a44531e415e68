// Supervisor tests: jobs-invariance, early exit on the retried outcome,
// retry-with-reseed, stall reports, round budgets, slice-wise pause/resume
// through amplified checkpoints, and the checks on a resumed snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "congest/supervisor.hpp"
#include "detect/pipelined_cycle.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

void expect_outcomes_equal(const RunOutcome& a, const RunOutcome& b) {
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
  EXPECT_EQ(a.faults.frames_dropped, b.faults.frames_dropped);
  EXPECT_EQ(a.faults.frames_corrupted, b.faults.frames_corrupted);
  EXPECT_EQ(a.faults.crashed_nodes, b.faults.crashed_nodes);
  EXPECT_EQ(a.faults.watchdog_stalls, b.faults.watchdog_stalls);
  EXPECT_EQ(a.faults.detected_by_survivors, b.faults.detected_by_survivors);
}

/// Node 0 floods a one-bit ping; every other node relays it once and halts
/// only when it arrives. Under lossy links a repetition completes only when
/// the flood reaches everyone, so the supervisor's retry-with-reseed path
/// gets genuinely seed-dependent fodder while staying reproducible per seed.
class FlakyPing final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    BitVec ping;
    ping.push_back(true);
    if (api.round() == 0) {
      if (api.id() == 0) {
        api.broadcast(ping);
        api.halt();
      }
      return;
    }
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      if (api.inbox(p) != nullptr) {
        api.broadcast(ping);  // relay, then leave
        api.halt();
        return;
      }
    }
  }
};

ProgramFactory flaky_ping_factory() {
  return [](std::uint32_t) { return std::make_unique<FlakyPing>(); };
}

TEST(Supervisor, OutcomesAreJobsInvariant) {
  Rng rng(22);
  const Graph g = build::gnp(10, 0.3, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 80;
  cfg.seed = 13;
  cfg.faults.drop = 0.1;
  cfg.faults.corrupt = 0.1;
  SupervisorConfig sup1;
  sup1.jobs = 1;
  sup1.max_retries = 3;
  SupervisorConfig sup4 = sup1;
  sup4.jobs = 4;
  const SupervisedResult a = Supervisor(g, cfg, sup1).run(factory, 8);
  const SupervisedResult b = Supervisor(g, cfg, sup4).run(factory, 8);
  expect_outcomes_equal(a.outcome, b.outcome);
  EXPECT_EQ(a.retries_used, b.retries_used);
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].repetition, b.stalls[i].repetition);
    EXPECT_EQ(a.stalls[i].seed, b.stalls[i].seed);
    EXPECT_EQ(a.stalls[i].rounds, b.stalls[i].rounds);
  }
}

TEST(Supervisor, EarlyExitFollowsTheRetriedOutcome) {
  // Node 0 crashes at round 0, so every repetition is fault-killed and
  // merged as its last retry. A repetition whose first attempt detects
  // while its retry does not must not end the batch: early exit reads the
  // merged outcome, at every jobs count and in one-repetition slices.
  Rng rng(1);
  const Graph g = build::gnp(20, 0.2, rng);
  const auto factory = detect::pipelined_cycle_program(4);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = detect::pipelined_cycle_round_budget(20, 4) + 1;
  cfg.seed = 3;
  cfg.faults.crashes = {{0, 0}};
  SupervisorConfig sup;
  sup.max_retries = 2;
  SupervisorConfig sliced = sup;
  sliced.max_reps_per_call = 1;
  const Supervisor slicer(g, cfg, sliced);
  SupervisedResult reference = slicer.run(factory, 8);
  while (reference.paused)
    reference = slicer.resume(factory, 8, *reference.checkpoint);
  ASSERT_TRUE(reference.outcome.detected);
  // The case this test is about: an earlier first attempt detects.
  const Network net(g, cfg);
  ASSERT_TRUE(net.run(factory, derive_seed(cfg.seed, 0x5eedULL)).detected);
  ASSERT_GT(reference.outcome.metrics.repetitions_executed, 1u);

  for (const unsigned jobs : {1u, 4u}) {
    sup.jobs = jobs;
    const SupervisedResult result = Supervisor(g, cfg, sup).run(factory, 8);
    expect_outcomes_equal(result.outcome, reference.outcome);
    EXPECT_EQ(result.retries_used, reference.retries_used) << "jobs " << jobs;
  }
}

TEST(Supervisor, RetriesReseedFaultKilledRepetitions) {
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 5;
  cfg.seed = 3;
  cfg.faults.drop = 0.4;  // many floods die; retries must rescue the reps
  SupervisorConfig sup;
  sup.max_retries = 12;
  const Supervisor supervisor(g, cfg, sup);
  const SupervisedResult result = supervisor.run(flaky_ping_factory(), 3);
  EXPECT_TRUE(result.outcome.completed);
  EXPECT_GT(result.retries_used, 0u);
  EXPECT_TRUE(result.stalls.empty());

  // Retry decisions are part of the determinism contract.
  const SupervisedResult again = supervisor.run(flaky_ping_factory(), 3);
  EXPECT_EQ(result.retries_used, again.retries_used);
  expect_outcomes_equal(result.outcome, again.outcome);
}

TEST(Supervisor, StallReportsSurfaceUnhealthyRepetitions) {
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 50;
  cfg.seed = 7;
  cfg.faults.crashes = {{1, 0}};  // the relay dies: nothing ever completes
  cfg.stall_window = 4;  // let the engine watchdog cut each repetition
  SupervisorConfig sup;
  sup.early_exit = false;
  const Supervisor supervisor(g, cfg, sup);
  const SupervisedResult result = supervisor.run(flaky_ping_factory(), 3);
  EXPECT_FALSE(result.outcome.completed);
  ASSERT_EQ(result.stalls.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.stalls[i].repetition, i);
    EXPECT_TRUE(result.stalls[i].incomplete);
    EXPECT_TRUE(result.stalls[i].watchdog);
    // The report carries the round the watchdog fired at — enough to
    // localize the stall without re-running.
    EXPECT_GT(result.stalls[i].rounds, 0u);
  }
  EXPECT_EQ(result.outcome.faults.watchdog_stalls, 3u);
}

TEST(Supervisor, StallReportCountersLocateTheStuckWorker) {
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 50;
  cfg.seed = 7;
  cfg.faults.crashes = {{1, 0}};
  cfg.shard.workers = 2;
  cfg.shard.channel_counters = true;  // opt into W-dependent counters
  cfg.stall_window = 4;
  SupervisorConfig sup;
  sup.early_exit = false;
  const Supervisor supervisor(g, cfg, sup);
  const SupervisedResult result = supervisor.run(flaky_ping_factory(), 1);
  ASSERT_EQ(result.stalls.size(), 1u);
  const StallReport& stall = result.stalls[0];
  EXPECT_TRUE(stall.watchdog);
  EXPECT_GT(stall.rounds, 0u);
  // With --shard-counters on, the per-worker last-progress counters ride
  // along in the report's scope: every worker's entry is present and none
  // advanced past the round the watchdog cut the repetition at.
  for (std::uint32_t w = 0; w < 2; ++w) {
    bool found = false;
    const std::string name = obs::worker_counter_name("shard_last_progress", w);
    for (const auto& [key, value] : stall.counters.entries())
      if (key == name) {
        found = true;
        EXPECT_LE(value, stall.rounds);
      }
    EXPECT_TRUE(found) << name << " missing from the stall scope";
  }
}

TEST(Supervisor, RoundBudgetFlagsSlowRepetitions) {
  const Graph g = build::cycle(8);
  const auto factory = detect::pipelined_cycle_program(3);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 80;
  cfg.seed = 9;
  SupervisorConfig sup;
  sup.early_exit = false;
  sup.round_budget = 1;  // every healthy repetition exceeds one round
  const Supervisor supervisor(g, cfg, sup);
  const SupervisedResult result = supervisor.run(factory, 2);
  EXPECT_TRUE(result.outcome.completed);
  ASSERT_EQ(result.stalls.size(), 2u);
  for (const StallReport& stall : result.stalls) {
    EXPECT_TRUE(stall.over_budget);
    EXPECT_FALSE(stall.incomplete);
    EXPECT_FALSE(stall.watchdog);
  }
}

TEST(Supervisor, SliceWiseResumeMatchesTheUninterruptedRun) {
  Rng rng(24);
  const Graph g = build::gnp(10, 0.3, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 80;
  cfg.seed = 17;
  cfg.faults.drop = 0.05;
  SupervisorConfig plain;
  plain.jobs = 2;
  plain.early_exit = false;
  plain.max_retries = 2;
  const Supervisor uninterrupted(g, cfg, plain);
  const SupervisedResult reference = uninterrupted.run(factory, 7);

  SupervisorConfig sliced = plain;
  sliced.max_reps_per_call = 3;
  const Supervisor supervisor(g, cfg, sliced);
  SupervisedResult slice = supervisor.run(factory, 7);
  EXPECT_TRUE(slice.paused);
  int slices = 1;
  while (slice.paused) {
    ASSERT_NE(slice.checkpoint, nullptr);
    // JSON round trip: pausing is only useful if the file survives a kill.
    const Snapshot reparsed = snapshot_from_json(
        obs::Json::parse(to_json(*slice.checkpoint).dump()));
    slice = supervisor.resume(factory, 7, reparsed);
    ASSERT_LE(++slices, 3);  // ceil(7 / 3) slices must suffice
  }
  expect_outcomes_equal(slice.outcome, reference.outcome);
  // retries_used is carried through the checkpoints, so the last slice
  // reports the same total as the uninterrupted run.
  EXPECT_EQ(slice.retries_used, reference.retries_used);
  EXPECT_EQ(slices, 3);
}

TEST(Supervisor, ResumingAFinishedBatchMergesNothing) {
  const Graph g = build::cycle(6);
  const auto factory = detect::pipelined_cycle_program(3);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 60;
  cfg.seed = 23;
  SupervisorConfig sup;
  sup.early_exit = false;
  const Supervisor supervisor(g, cfg, sup);
  const SupervisedResult done = supervisor.run(factory, 3);
  ASSERT_NE(done.checkpoint, nullptr);
  EXPECT_EQ(done.checkpoint->amplified.next_repetition, 3u);
  // Nothing is left to run, so there is no new checkpoint to write.
  const SupervisedResult again =
      supervisor.resume(factory, 3, *done.checkpoint);
  EXPECT_EQ(again.checkpoint, nullptr);
  EXPECT_FALSE(again.paused);
  EXPECT_EQ(again.outcome.metrics.repetitions_executed, 3u);
  EXPECT_EQ(again.outcome.verdicts, done.outcome.verdicts);
}

TEST(Supervisor, ResumeRejectsForeignOrMismatchedSnapshots) {
  const Graph g = build::cycle(6);
  const auto factory = detect::pipelined_cycle_program(3);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 60;
  cfg.seed = 19;
  SupervisorConfig sup;
  sup.early_exit = false;
  sup.max_reps_per_call = 1;
  const Supervisor supervisor(g, cfg, sup);
  const SupervisedResult first = supervisor.run(factory, 3);
  ASSERT_TRUE(first.paused);
  ASSERT_NE(first.checkpoint, nullptr);
  // Wrong repetition count.
  EXPECT_THROW(supervisor.resume(factory, 5, *first.checkpoint), CheckFailure);
  // Wrong topology.
  const Supervisor other(build::path(6), cfg, sup);
  EXPECT_THROW(other.resume(factory, 3, *first.checkpoint), CheckFailure);
  // Wrong kind.
  Snapshot async_snap;
  async_snap.kind = Snapshot::Kind::Async;
  EXPECT_THROW(supervisor.resume(factory, 3, async_snap), CheckFailure);
  // Accounting no Supervisor writes: every repetition before the resume
  // point was executed, none skipped, and `detected` is the OR of the
  // verdicts (this C_3-free host rejects nowhere).
  const auto damaged = [&](auto&& damage) {
    Snapshot snap = *first.checkpoint;
    damage(snap.amplified);
    return snap;
  };
  EXPECT_NO_THROW(
      supervisor.resume(factory, 3, damaged([](AmplifiedSnapshot&) {})));
  EXPECT_THROW(supervisor.resume(factory, 3,
                                 damaged([](AmplifiedSnapshot& amp) {
                                   ++amp.repetitions_executed;
                                 })),
               CheckFailure);
  EXPECT_THROW(supervisor.resume(factory, 3,
                                 damaged([](AmplifiedSnapshot& amp) {
                                   amp.repetitions_skipped = 1;
                                 })),
               CheckFailure);
  EXPECT_THROW(supervisor.resume(
                   factory, 3,
                   damaged([](AmplifiedSnapshot& amp) { amp.detected = 1; })),
               CheckFailure);
  EXPECT_THROW(supervisor.resume(factory, 3,
                                 damaged([](AmplifiedSnapshot& amp) {
                                   amp.verdict_reject.at(0) = 1;
                                 })),
               CheckFailure);
}

TEST(Supervisor, DeadlineCutsSchedulingButNeverTheAnswer) {
  Rng rng(26);
  const Graph g = build::gnp(12, 0.3, rng);
  const auto factory = detect::pipelined_cycle_program(4);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 120;
  cfg.seed = 29;
  SupervisorConfig plain;
  plain.early_exit = false;
  const SupervisedResult reference = Supervisor(g, cfg, plain).run(factory, 24);

  SupervisorConfig rushed = plain;
  rushed.deadline_ms = 1;
  SupervisedResult result = Supervisor(g, cfg, rushed).run(factory, 24);
  // Whether or not the wall clock expired (inherently nondeterministic),
  // the final aggregate after resuming must match the uninterrupted run:
  // the deadline only ever cuts scheduling between repetitions.
  if (result.deadline_hit) {
    ASSERT_NE(result.checkpoint, nullptr);
    result = Supervisor(g, cfg, plain).resume(factory, 24, *result.checkpoint);
  }
  EXPECT_FALSE(result.deadline_hit);
  expect_outcomes_equal(result.outcome, reference.outcome);
}

}  // namespace
}  // namespace csd::congest
