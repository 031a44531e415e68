// Tests for the cycle-detection algorithms: the linear-round pipelined
// baseline and the §6 sublinear C_2k detector (Theorem 1.1). Both are
// validated against the exhaustive oracle; rejection must always certify a
// real cycle (one-sided error) and detection must succeed with enough
// repetitions. Also covers IdSet and Fifo, the detectors' per-node id-set
// and token-queue helpers, against std::set and std::deque models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detect/even_cycle.hpp"
#include "detect/fifo.hpp"
#include "detect/id_set.hpp"
#include "detect/pipelined_cycle.hpp"
#include "fuzz/fuzz_case.hpp"
#include "graph/builders.hpp"
#include "graph/oracle.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace csd::detect {
namespace {

constexpr std::uint64_t kBandwidth = 64;

// ------------------------------------------------------ pipelined baseline
TEST(PipelinedCycle, DetectsTheCycleItself) {
  // Per-repetition success for the bare cycle is 2L/L^L, so only short
  // cycles are testable this way; longer lengths are covered on cycle-rich
  // hosts below.
  for (const std::uint32_t len : {3u, 4u}) {
    const Graph g = build::cycle(len);
    PipelinedCycleConfig cfg;
    cfg.length = len;
    cfg.repetitions = 400;
    const auto outcome = detect_cycle_pipelined(g, cfg, kBandwidth, 42);
    EXPECT_TRUE(outcome.detected) << "C_" << len;
  }
}

TEST(PipelinedCycle, DetectsLongCyclesInRichHosts) {
  // K_9 teems with C_5..C_7 copies, K_{6,6} with C_8 copies: the expected
  // number of properly-colored cycles per repetition is large enough for a
  // few hundred repetitions to detect with overwhelming probability.
  const Graph k9 = build::complete(9);
  const Graph k66 = build::complete_bipartite(6, 6);
  const struct {
    const Graph* host;
    std::uint32_t len;
    std::uint32_t reps;
  } cases[] = {{&k9, 5, 60}, {&k9, 6, 120}, {&k9, 7, 400}, {&k66, 8, 2000}};
  for (const auto& c : cases) {
    PipelinedCycleConfig cfg;
    cfg.length = c.len;
    cfg.repetitions = c.reps;
    EXPECT_TRUE(detect_cycle_pipelined(*c.host, cfg, kBandwidth, 42).detected)
        << "C_" << c.len;
  }
}

TEST(PipelinedCycle, AcceptsCycleOfWrongLength) {
  for (const std::uint32_t len : {4u, 5u, 6u}) {
    const Graph g = build::cycle(9);  // only a 9-cycle exists
    PipelinedCycleConfig cfg;
    cfg.length = len;
    cfg.repetitions = 100;
    EXPECT_FALSE(detect_cycle_pipelined(g, cfg, kBandwidth, 7).detected)
        << "C_" << len << " claimed in C_9";
  }
}

TEST(PipelinedCycle, AcceptsTreesAndPaths) {
  Rng rng(3);
  const Graph tree = build::random_tree(40, rng);
  PipelinedCycleConfig cfg;
  cfg.length = 4;
  cfg.repetitions = 60;
  EXPECT_FALSE(detect_cycle_pipelined(tree, cfg, kBandwidth, 9).detected);
  EXPECT_FALSE(
      detect_cycle_pipelined(build::path(30), cfg, kBandwidth, 9).detected);
}

TEST(PipelinedCycle, NeverFalsePositiveOnRandomGraphs) {
  // One-sided error: whenever the algorithm rejects, the oracle must agree.
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = build::gnp(24, 0.09, rng);
    for (const std::uint32_t len : {3u, 4u, 5u, 6u}) {
      PipelinedCycleConfig cfg;
      cfg.length = len;
      cfg.repetitions = 40;
      const bool detected =
          detect_cycle_pipelined(g, cfg, kBandwidth,
                                 100 + static_cast<std::uint64_t>(trial))
              .detected;
      if (detected) {
        EXPECT_TRUE(oracle::has_cycle_of_length(g, len))
            << "false positive: trial " << trial << " len " << len;
      }
    }
  }
}

TEST(PipelinedCycle, DetectsPlantedC4InSparseGraph) {
  Rng rng(13);
  Graph g = build::random_tree(50, rng);  // cycle-free host
  build::plant_subgraph(g, build::cycle(4), rng);
  PipelinedCycleConfig cfg;
  cfg.length = 4;
  cfg.repetitions = 500;
  EXPECT_TRUE(detect_cycle_pipelined(g, cfg, kBandwidth, 1004).detected);
}

TEST(PipelinedCycle, DetectsManyDisjointC6Copies) {
  // 30 independent C_6 copies raise the per-repetition hit rate from
  // 1/3888 to ~1/130; 1200 repetitions then miss with probability < 1e-4.
  const Graph g = build::disjoint_copies(build::cycle(6), 30);
  PipelinedCycleConfig cfg;
  cfg.length = 6;
  cfg.repetitions = 1200;
  EXPECT_TRUE(detect_cycle_pipelined(g, cfg, kBandwidth, 77).detected);
}

TEST(PipelinedCycle, RoundBudgetIsLinear) {
  const auto budget = pipelined_cycle_round_budget(500, 6);
  EXPECT_GE(budget, 500u);
  EXPECT_LE(budget, 510u);
}

TEST(PipelinedCycle, RejectsTooSmallBandwidth) {
  const Graph g = build::cycle(4);
  PipelinedCycleConfig cfg;
  cfg.length = 4;
  EXPECT_THROW(detect_cycle_pipelined(g, cfg, /*bandwidth=*/2, 1),
               CheckFailure);
}

TEST(PipelinedCycle, OddCyclesHandledToo) {
  // The baseline covers odd cycles (where no sublinear algorithm exists).
  // 20 disjoint C_5 copies: per-rep hit rate ~20·10/3125 = 1/16.
  const Graph g = build::disjoint_copies(build::cycle(5), 20);
  PipelinedCycleConfig cfg;
  cfg.length = 5;
  cfg.repetitions = 300;
  EXPECT_TRUE(detect_cycle_pipelined(g, cfg, kBandwidth, 5).detected);
}

// ------------------------------------------------------------- schedules --
TEST(EvenCycleSchedule, MatchesTheoremExponents) {
  // R_total(n) should grow like n^{1-1/(k(k-1))}: check the growth ratio
  // between n and 4n is within sane bounds of 4^{1-1/(k(k-1))}.
  for (const std::uint32_t k : {2u, 3u}) {
    EvenCycleConfig cfg;
    cfg.k = k;
    cfg.c_num = 1;
    const double expo = 1.0 - 1.0 / (k * (k - 1.0));
    const auto r1 = make_even_cycle_schedule(1u << 12, cfg).total_rounds();
    const auto r2 = make_even_cycle_schedule(1u << 14, cfg).total_rounds();
    const double measured =
        std::log2(static_cast<double>(r2) / static_cast<double>(r1)) / 2.0;
    EXPECT_NEAR(measured, expo, 0.25) << "k=" << k;
  }
}

TEST(EvenCycleSchedule, WindowsAreOrdered) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    EvenCycleConfig cfg;
    cfg.k = k;
    const auto s = make_even_cycle_schedule(1000, cfg);
    EXPECT_GT(s.window_start[1], s.phase1_rounds);
    for (std::uint32_t w = 2; w <= k; ++w)
      EXPECT_GT(s.window_start[w], s.window_start[w - 1]);
    EXPECT_GT(s.final_round, s.window_start[k]);
  }
}

TEST(EvenCycleSchedule, RejectsBadParameters) {
  EvenCycleConfig cfg;
  cfg.k = 1;
  EXPECT_THROW(make_even_cycle_schedule(100, cfg), CheckFailure);
}

// ---------------------------------------------------------- even cycles --
EvenCycleConfig ec_config(std::uint32_t k, std::uint32_t reps) {
  EvenCycleConfig cfg;
  cfg.k = k;
  cfg.repetitions = reps;
  return cfg;
}

TEST(EvenCycle, DetectsThePureCycleC4) {
  const Graph g = build::cycle(4);
  const auto outcome =
      detect_even_cycle(g, ec_config(2, 600), kBandwidth, 21);
  EXPECT_TRUE(outcome.detected);
}

TEST(EvenCycle, DetectsC6AmongManyCopies) {
  // A single C_6 is hit with probability ~12/6^6 per repetition; 10 disjoint
  // copies and a tuned Turán constant keep the schedule short while pushing
  // the per-repetition rate to ~1/390.
  const Graph g = build::disjoint_copies(build::cycle(6), 10);
  EvenCycleConfig cfg = ec_config(3, 3000);
  cfg.c_num = 1;
  const auto outcome = detect_even_cycle(g, cfg, kBandwidth, 23);
  EXPECT_TRUE(outcome.detected);
}

TEST(EvenCycle, DetectsC8InCompleteBipartiteHost) {
  // K_{8,8} holds ~350k C_8 copies; with every vertex above the k = 4
  // degree threshold, detection runs entirely through phase I.
  const Graph g = build::complete_bipartite(8, 8);
  const auto outcome = detect_even_cycle(g, ec_config(4, 120), kBandwidth, 3);
  EXPECT_TRUE(outcome.detected);
}

TEST(EvenCycle, AcceptsTrees) {
  Rng rng(29);
  const Graph tree = build::random_tree(48, rng);
  EXPECT_FALSE(detect_even_cycle(tree, ec_config(2, 100), kBandwidth, 1)
                   .detected);
  EXPECT_FALSE(detect_even_cycle(tree, ec_config(3, 60), kBandwidth, 1)
                   .detected);
}

TEST(EvenCycle, AcceptsC4FreePolarityGraph) {
  // ER_5: 31 vertices, C4-free, near-extremal density — the hard negative.
  const Graph g = build::polarity_graph(5);
  EXPECT_FALSE(
      detect_even_cycle(g, ec_config(2, 120), kBandwidth, 3).detected);
}

TEST(EvenCycle, AcceptsC6FreeIncidenceGraph) {
  // The girth-8 generalized quadrangle GQ(4,3): 80 vertices at
  // near-extremal C_6-free density — the hard negative for k = 3.
  const Graph g = build::generalized_quadrangle_incidence(3);
  EXPECT_FALSE(
      detect_even_cycle(g, ec_config(3, 80), kBandwidth, 5).detected);
  EXPECT_FALSE(
      detect_even_cycle(g, ec_config(2, 80), kBandwidth, 5).detected);
}

TEST(EvenCycle, DetectsC4InDenseRandomGraph) {
  Rng rng(31);
  const Graph g = build::gnp(40, 0.25, rng);  // C4s abound
  ASSERT_TRUE(oracle::has_cycle_of_length(g, 4));
  EXPECT_TRUE(
      detect_even_cycle(g, ec_config(2, 300), kBandwidth, 5).detected);
}

TEST(EvenCycle, DetectsPlantedC4AmongTrees) {
  Rng rng(37);
  Graph g = build::random_tree(60, rng);
  build::plant_subgraph(g, build::cycle(4), rng);
  ASSERT_TRUE(oracle::has_cycle_of_length(g, 4));
  EXPECT_TRUE(
      detect_even_cycle(g, ec_config(2, 800), kBandwidth, 7).detected);
}

TEST(EvenCycle, DetectsC6InCompleteBipartiteHost) {
  // K_{5,5} contains 100·... C_6 copies; expected properly-colored count per
  // repetition is high, so few repetitions suffice even for k = 3.
  const Graph g = build::complete_bipartite(5, 5);
  EvenCycleConfig cfg = ec_config(3, 250);
  const auto outcome = detect_even_cycle(g, cfg, kBandwidth, 11);
  EXPECT_TRUE(outcome.detected);
}

TEST(EvenCycle, OneSidedErrorOnRandomGraphs) {
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = build::gnp(26, 0.10, rng);
    for (const std::uint32_t k : {2u, 3u}) {
      const bool detected =
          detect_even_cycle(g, ec_config(k, 60), kBandwidth,
                            900 + static_cast<std::uint64_t>(trial))
              .detected;
      if (detected) {
        EXPECT_TRUE(oracle::has_cycle_of_length(g, 2 * k))
            << "false positive at trial " << trial << " k " << k;
      }
    }
  }
}

TEST(EvenCycle, Lemma61QueuesDrainWithinDeadline) {
  // Lemma 6.1: when |E| <= M, every phase-I queue drains within
  // R1 = ceil(2M/T) + 2k + 1 rounds. Measured with the probe on the
  // near-extremal C_4-free polarity graph (many high-degree token origins).
  const Graph g = build::polarity_graph(7);  // 57 vertices, ~1000 edges
  EvenCycleConfig cfg;
  cfg.k = 3;  // T = ceil(sqrt(57)) = 8 < max degree: phase I really runs
  const auto sched = make_even_cycle_schedule(g.num_vertices(), cfg);
  ASSERT_LE(g.num_edges(), sched.edge_bound_m) << "fixture must obey |E|<=M";
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    EvenCycleProbe probe;
    congest::NetworkConfig net_cfg;
    net_cfg.bandwidth = 64;
    net_cfg.seed = seed;
    net_cfg.max_rounds = sched.total_rounds() + 1;
    congest::run_congest(g, net_cfg, even_cycle_program(cfg, &probe));
    EXPECT_FALSE(probe.phase1_deadline_reject);
    EXPECT_LE(probe.phase1_drained_round, sched.phase1_rounds)
        << "seed " << seed;
    EXPECT_GT(probe.max_phase1_queue, 0u)
        << "fixture should actually exercise the queues";
  }
}

TEST(EvenCycle, DenseGraphRejectedByLayeringDeadline) {
  // Lemma 6.3's flip side: when |E| > M the "too many edges" paths fire.
  // gnp(30, 0.95) has average degree ~27.5 > d = 4M/n = 24, so the peeling
  // never completes and every repetition rejects — deterministically, with
  // a single repetition. Soundness: such a dense graph must contain C_4.
  Rng rng(71);
  const Graph g = build::gnp(30, 0.95, rng);
  ASSERT_TRUE(oracle::has_cycle_of_length(g, 4));
  EvenCycleConfig cfg = ec_config(2, 1);
  cfg.c_num = 1;
  EXPECT_TRUE(detect_even_cycle(g, cfg, kBandwidth, 1).detected);
  EXPECT_TRUE(detect_even_cycle(g, cfg, kBandwidth, 999).detected);
}

TEST(EvenCycle, HandlesDisconnectedGraphs) {
  Graph g = build::disjoint_copies(build::cycle(4), 3);
  EXPECT_TRUE(
      detect_even_cycle(g, ec_config(2, 400), kBandwidth, 13).detected);
  const Graph forest = build::disjoint_copies(build::path(5), 4);
  EXPECT_FALSE(
      detect_even_cycle(forest, ec_config(2, 50), kBandwidth, 13).detected);
}

TEST(EvenCycle, MeasuredRoundsEqualTheSchedule) {
  // The round counts reported by the THM11 bench are schedule-exact: a run
  // takes exactly total_rounds() rounds, on any input, at any seed.
  Rng rng(83);
  for (const Vertex n : {32u, 100u}) {
    const Graph g = build::gnp(n, 0.08, rng);
    for (const std::uint32_t k : {2u, 3u}) {
      EvenCycleConfig cfg;
      cfg.k = k;
      const auto sched = make_even_cycle_schedule(n, cfg);
      congest::NetworkConfig net_cfg;
      net_cfg.bandwidth = 64;
      net_cfg.seed = 17;
      net_cfg.max_rounds = sched.total_rounds() + 5;
      const auto outcome =
          congest::run_congest(g, net_cfg, even_cycle_program(cfg));
      EXPECT_TRUE(outcome.completed);
      EXPECT_EQ(outcome.metrics.rounds, sched.total_rounds())
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(EvenCycle, SkippedIdleRoundsAreBitIdenticalToTheShardedEngine) {
  // The program sleeps through idle rounds (NodeApi::sleep_until) and the
  // round kernel skips them; the reference runs the same program behind
  // fuzz::ignore_activity_hints, so the kernel calls every node in every
  // round. (The probe is shared by all nodes, so both run inline at
  // W = 1; the hint-equivalence fuzz oracle covers W = 3.) Fixtures cover
  // the whole schedule:
  // phase-I tokens and their deadline (polarity graph, k = 3), nodes left
  // unassigned by the peeling (dense G(n,p), c = 1), prefix tokens through
  // several windows (K_{5,5}, k = 3), and a planted C_4 in a tree.
  struct Fixture {
    Graph g;
    std::uint32_t k;
    std::uint64_t c_num;
  };
  Rng rng(97);
  std::vector<Fixture> fixtures;
  fixtures.push_back({build::polarity_graph(7), 3, 4});
  fixtures.push_back({build::gnp(30, 0.95, rng), 2, 1});
  fixtures.push_back({build::complete_bipartite(5, 5), 3, 4});
  Graph planted = build::random_tree(60, rng);
  build::plant_subgraph(planted, build::cycle(4), rng);
  fixtures.push_back({std::move(planted), 2, 4});
  const auto jsonl = [](const congest::RunOutcome& outcome) {
    std::ostringstream os;
    outcome.trace.write_jsonl(os);
    return os.str();
  };
  bool any_detected = false;
  for (const Fixture& f : fixtures) {
    EvenCycleConfig cfg = ec_config(f.k, 1);
    cfg.c_num = f.c_num;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      congest::NetworkConfig net_cfg;
      net_cfg.bandwidth = kBandwidth;
      net_cfg.seed = seed;
      net_cfg.max_rounds =
          make_even_cycle_schedule(f.g.num_vertices(), cfg).total_rounds() +
          1;
      net_cfg.trace.enabled = true;
      net_cfg.trace.per_node = true;
      EvenCycleProbe probe;
      const auto kernel =
          congest::run_congest(f.g, net_cfg, even_cycle_program(cfg, &probe));
      EvenCycleProbe ref_probe;
      const auto reference = congest::run_congest(
          f.g, net_cfg,
          fuzz::ignore_activity_hints(even_cycle_program(cfg, &ref_probe)));
      const std::string label = "k=" + std::to_string(f.k) +
                                " n=" + std::to_string(f.g.num_vertices()) +
                                " seed=" + std::to_string(seed);
      EXPECT_EQ(kernel.verdicts, reference.verdicts) << label;
      EXPECT_EQ(kernel.metrics.rounds, reference.metrics.rounds) << label;
      EXPECT_EQ(kernel.metrics.bits_sent_by_node,
                reference.metrics.bits_sent_by_node)
          << label;
      EXPECT_EQ(kernel.trace.approx_bytes(), reference.trace.approx_bytes())
          << label;
      EXPECT_EQ(jsonl(kernel), jsonl(reference)) << label;
      EXPECT_EQ(probe.max_phase1_queue, ref_probe.max_phase1_queue) << label;
      EXPECT_EQ(probe.phase1_drained_round, ref_probe.phase1_drained_round)
          << label;
      EXPECT_EQ(probe.phase1_deadline_reject,
                ref_probe.phase1_deadline_reject)
          << label;
      any_detected = any_detected || kernel.detected;
    }
  }
  EXPECT_TRUE(any_detected) << "fixtures should exercise the reject paths";
}

TEST(EvenCycle, MinBandwidthSufficient) {
  const Graph g = build::cycle(4);
  EvenCycleConfig cfg = ec_config(2, 500);
  const auto b = even_cycle_min_bandwidth(g.num_vertices(), cfg);
  EXPECT_TRUE(detect_even_cycle(g, cfg, b, 17).detected);
  EXPECT_THROW(detect_even_cycle(g, cfg, b - 1, 17), CheckFailure);
}

TEST(EvenCycle, SublinearRoundsAtScale) {
  // The schedule (not a run) certifies the round budget: for large n the
  // total must be well below the linear baseline.
  EvenCycleConfig cfg;
  cfg.k = 2;
  cfg.c_num = 1;
  const std::uint64_t n = 1u << 16;
  EXPECT_LT(make_even_cycle_schedule(n, cfg).total_rounds(),
            pipelined_cycle_round_budget(n, 4) / 10);
}

// -------------------------------------------------------------- id sets --
TEST(IdSet, NeverInsertedSetReadsEmpty) {
  IdSet a, b, sparse;
  a.init(100);
  b.init(100);
  sparse.init(IdSet::kDenseLimit + 1);  // promotes to a hash set
  EXPECT_FALSE(a.contains(0));
  EXPECT_FALSE(a.contains(99));
  EXPECT_FALSE(a.contains(1000));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(intersects(a, b));  // both empty lists
  EXPECT_FALSE(intersects(a, sparse));
  // One side empty, the other holding an id.
  EXPECT_TRUE(b.insert(7));
  EXPECT_FALSE(intersects(a, b));
  EXPECT_FALSE(intersects(b, a));
  // Across universes.
  EXPECT_TRUE(sparse.insert(7));
  EXPECT_FALSE(intersects(a, sparse));
  EXPECT_FALSE(intersects(sparse, a));
  EXPECT_TRUE(intersects(b, sparse));
  EXPECT_TRUE(intersects(sparse, b));
}

TEST(IdSet, ClearOnAnUnallocatedSet) {
  IdSet s;
  s.init(64);
  s.clear();
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
}

TEST(IdSet, ClearThenReinsert) {
  IdSet s, other;
  s.init(200);
  other.init(200);
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(150));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(other.insert(150));
  EXPECT_TRUE(intersects(s, other));
  s.clear();
  EXPECT_FALSE(s.contains(3));
  EXPECT_FALSE(s.contains(150));
  EXPECT_FALSE(intersects(s, other));
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_FALSE(intersects(s, other));
  EXPECT_TRUE(s.insert(150));
  EXPECT_TRUE(intersects(s, other));
}

/// Drives an IdSet over `universe` with seeded random inserts, lookups and
/// clears, checking every answer and the size against a std::set. Returns
/// how often the set outgrew its list (the 17th distinct id since a clear).
std::uint64_t run_id_set_model(std::uint64_t universe, std::uint64_t seed) {
  Rng rng(seed);
  IdSet set;
  set.init(universe);
  std::set<std::uint64_t> model;
  std::uint64_t promotions = 0;
  for (int op = 0; op < 20000; ++op) {
    // Ids of a small range repeat; ids of the whole universe reach its end.
    const std::uint64_t id =
        rng.below(2) == 0 ? rng.below(48) : rng.below(universe);
    const std::uint64_t kind = rng.below(100);
    if (kind < 60) {
      const bool fresh = model.insert(id).second;
      EXPECT_EQ(set.insert(id), fresh) << "insert " << id << ", op " << op;
      if (fresh && model.size() == IdSet::kListCap + 1) ++promotions;
    } else if (kind < 99) {
      // Past the universe too: every representation reads it as absent.
      const std::uint64_t probe = kind < 97 ? id : universe + id % 100;
      EXPECT_EQ(set.contains(probe), model.count(probe) != 0)
          << "contains " << probe << ", op " << op;
    } else {
      set.clear();
      model.clear();
    }
    EXPECT_EQ(set.size(), model.size()) << "op " << op;
  }
  for (const std::uint64_t id : model) EXPECT_TRUE(set.contains(id)) << id;
  return promotions;
}

TEST(IdSet, MatchesASetModelAcrossListToBitsetPromotions) {
  EXPECT_GE(run_id_set_model(IdSet::kDenseLimit, 1), 100u);
  EXPECT_GE(run_id_set_model(1000, 2), 100u);
}

TEST(IdSet, MatchesASetModelAcrossListToHashSetPromotions) {
  EXPECT_GE(run_id_set_model(IdSet::kDenseLimit + 1, 3), 100u);
}

TEST(IdSet, ClearAfterAPromotionThenReinsert) {
  const std::uint64_t universes[] = {4096, IdSet::kDenseLimit + 1};
  for (const std::uint64_t universe : universes) {
    SCOPED_TRACE(universe);
    IdSet s, probe;
    s.init(universe);
    probe.init(universe);
    const std::uint64_t ids = IdSet::kListCap + 1;  // one past the list
    for (std::uint64_t i = 0; i < ids; ++i) EXPECT_TRUE(s.insert(3 * i));
    EXPECT_EQ(s.size(), ids);
    EXPECT_TRUE(probe.insert(3 * (ids - 1)));  // the id that promoted s
    EXPECT_TRUE(intersects(s, probe));
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    for (std::uint64_t i = 0; i < ids; ++i) EXPECT_FALSE(s.contains(3 * i));
    EXPECT_FALSE(intersects(s, probe));
    // Refill past the cap with other ids: the old ones stay gone.
    for (std::uint64_t i = 0; i < 2 * ids; ++i)
      EXPECT_TRUE(s.insert(3 * i + 1));
    EXPECT_FALSE(s.insert(1));
    EXPECT_FALSE(s.contains(3 * (ids - 1)));
    EXPECT_FALSE(intersects(s, probe));
    EXPECT_TRUE(probe.insert(4));
    EXPECT_TRUE(intersects(s, probe));
    EXPECT_TRUE(intersects(probe, s));
  }
}

TEST(IdSet, IntersectsAgreesAcrossEveryPairOfRepresentations) {
  // (universe, ids): an empty list, a short list and a promoted set over
  // two dense universes of unequal size and one hash-set universe.
  struct Shape {
    std::uint64_t universe;
    std::uint64_t ids;
  };
  const std::uint64_t universes[] = {1000, 5000, IdSet::kDenseLimit + 1};
  const std::uint64_t counts[] = {0, 3, 40};
  std::vector<Shape> shapes;
  for (const std::uint64_t universe : universes)
    for (const std::uint64_t ids : counts) shapes.push_back({universe, ids});
  // Left sets hold even ids and right sets odd ones, so they meet only in
  // the shared id when one is added to both.
  const auto make = [](const Shape& shape, std::uint64_t parity, bool shared,
                       Rng& rng) {
    IdSet s;
    s.init(shape.universe);
    while (s.size() < shape.ids)
      s.insert(2 * rng.below(shape.universe / 2) + parity);
    if (shared) s.insert(999);
    return s;
  };
  Rng rng(11);
  int pairs = 0;
  for (const Shape& left : shapes)
    for (const Shape& right : shapes)
      for (const bool shared : {false, true}) {
        const IdSet a = make(left, 0, shared, rng);
        const IdSet b = make(right, 1, shared, rng);
        EXPECT_EQ(intersects(a, b), shared)
            << left.universe << "/" << left.ids << " x " << right.universe
            << "/" << right.ids;
        EXPECT_EQ(intersects(b, a), shared);
        ++pairs;
      }
  EXPECT_EQ(pairs, 162);
}

// ------------------------------------------------------------------ FIFOs --
TEST(Fifo, MatchesADequeModel) {
  Rng rng(5);
  Fifo<std::uint64_t> fifo;
  std::deque<std::uint64_t> model;
  EXPECT_EQ(fifo.capacity(), 0u);  // allocates on its first push
  std::size_t peak = 0;
  for (std::uint64_t op = 0; op < 100000; ++op) {
    // Stretches that mostly push, then mostly pop, so lengths rise and fall.
    const std::uint64_t push_percent = (op / 2000) % 2 == 0 ? 65 : 35;
    const std::uint64_t kind = rng.below(1000);
    if (kind == 0) {
      fifo.clear();
      model.clear();
    } else if (kind % 100 < push_percent || model.empty()) {
      fifo.push_back(op);
      model.push_back(op);
    } else {
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(fifo.front(), model.front()) << "op " << op;
      fifo.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(fifo.size(), model.size()) << "op " << op;
    EXPECT_EQ(fifo.empty(), model.empty());
    if (!model.empty()) {
      EXPECT_EQ(fifo.front(), model.front());
    }
    peak = std::max(peak, model.size());
    // Storage within a constant factor of the longest the queue has been.
    EXPECT_LE(fifo.capacity(), 4 * peak) << "op " << op;
  }
  EXPECT_GE(peak, 100u);
}

TEST(Fifo, StorageStaysBoundedUnderInterleavedPushAndPop) {
  Rng rng(9);
  Fifo<std::uint64_t> fifo;
  std::uint64_t next = 0, expected = 0;
  for (int op = 0; op < 100000; ++op) {
    // At most 3 items live; 10^5 pushes and pops run through the queue.
    const bool push = fifo.empty() || (fifo.size() < 3 && rng.below(2) == 0);
    if (push) {
      fifo.push_back(next++);
    } else {
      ASSERT_EQ(fifo.front(), expected++);
      fifo.pop_front();
    }
  }
  EXPECT_GT(next, 40000u);
  EXPECT_LE(fifo.capacity(), 64u);
}

// The paper's cycle algorithms are broadcast algorithms and must be
// namespace-robust: they work unchanged under broadcast-only enforcement
// and under sparse random identifiers from a large namespace.
TEST(ModelVariants, CycleDetectorsAreBroadcastAlgorithms) {
  const Graph g = build::disjoint_copies(build::cycle(4), 3);
  congest::NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.broadcast_only = true;
  cfg.max_rounds = 100000;
  bool detected = false;
  for (std::uint64_t seed = 0; seed < 400 && !detected; ++seed) {
    cfg.seed = seed;
    detected = congest::run_congest(g, cfg, pipelined_cycle_program(4))
                   .detected;
  }
  EXPECT_TRUE(detected);

  detected = false;
  EvenCycleConfig ec;
  ec.k = 2;
  for (std::uint64_t seed = 0; seed < 400 && !detected; ++seed) {
    cfg.seed = seed;
    detected = congest::run_congest(g, cfg, even_cycle_program(ec)).detected;
  }
  EXPECT_TRUE(detected);
}

TEST(ModelVariants, DetectorsWorkWithSparseRandomIds) {
  Rng rng(101);
  const Graph g = build::disjoint_copies(build::cycle(4), 4);
  const std::uint64_t big_namespace = 1u << 20;
  std::vector<congest::NodeId> ids;
  std::set<std::uint64_t> used;
  while (ids.size() < g.num_vertices()) {
    const auto id = rng.below(big_namespace);
    if (used.insert(id).second) ids.push_back(id);
  }
  congest::NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.namespace_size = big_namespace;
  cfg.max_rounds = 100000;
  bool pipelined = false, even = false;
  EvenCycleConfig ec;
  ec.k = 2;
  for (std::uint64_t seed = 0; seed < 400 && !(pipelined && even); ++seed) {
    cfg.seed = seed;
    if (!pipelined)
      pipelined = congest::Network(g, cfg, ids)
                      .run(pipelined_cycle_program(4))
                      .detected;
    if (!even)
      even = congest::Network(g, cfg, ids).run(even_cycle_program(ec))
                 .detected;
  }
  EXPECT_TRUE(pipelined);
  EXPECT_TRUE(even);
}

}  // namespace
}  // namespace csd::detect
