// Tests for the differential fuzzing harness: case serialization,
// generator determinism, the cross-engine oracle on known-good fixtures,
// the delta-debugging shrinker, and a short fixed-seed campaign smoke run
// (the same invariants CI's longer fuzz-smoke job enforces).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "fuzz/differential.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/shrink.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"

namespace csd::fuzz {
namespace {

FuzzCase k4_case() {
  FuzzCase c;
  c.program = ProgramKind::Clique;
  c.param = 3;
  c.num_vertices = 5;
  c.edges = build::complete(4).edges();  // K_4 + one isolated vertex
  c.seed = 7;
  return c;
}

TEST(FuzzCase, JsonRoundTripIsExact) {
  FuzzCase c = k4_case();
  c.repetitions = 3;
  c.bandwidth = 40;
  c.max_delay = 6;
  c.drop = 0.125;
  c.corrupt = 0.25;
  c.corrupt_headers = true;
  c.crashes = {{2, 4}, {0, 1}};
  const obs::Json j = to_json(c);
  const FuzzCase back = case_from_json(obs::Json::parse(j.dump()));
  EXPECT_EQ(back, c);
}

TEST(FuzzCase, MalformedJsonIsRejected) {
  const obs::Json good = to_json(k4_case());
  obs::Json j = good;
  j.set("program", "no-such-program");
  EXPECT_THROW(case_from_json(j), CheckFailure);
  // 2^32 + 6 vertices must not wrap around to 6.
  j = good;
  j.set("n", std::uint64_t{4294967302});
  EXPECT_THROW(case_from_json(j), CheckFailure);
}

TEST(FuzzCase, TreeCatalogEntriesAreTrees) {
  for (std::size_t i = 0; i < tree_catalog_size(); ++i) {
    const Graph t = tree_catalog(i);
    EXPECT_EQ(t.num_edges(), t.num_vertices() - 1) << "catalog " << i;
    EXPECT_GE(t.degree(0), 1u) << "catalog " << i << " not rooted at 0";
  }
}

TEST(Generator, IsAPureFunctionOfTheSeed) {
  const FuzzCase a = generate_case(42);
  const FuzzCase b = generate_case(42);
  EXPECT_EQ(a, b);
  // And different seeds explore different cases (program/host variety).
  std::set<std::string> shapes;
  for (std::uint64_t s = 0; s < 32; ++s) {
    const FuzzCase c = generate_case(s);
    shapes.insert(to_json(c).dump());
    EXPECT_GE(c.num_vertices, pattern_graph(c).num_vertices());
    for (const auto& ev : c.crashes) EXPECT_LT(ev.node, c.num_vertices);
  }
  EXPECT_GT(shapes.size(), 20u);
}

testing::AssertionResult clean(const FuzzCase& c,
                               CaseExpectation* expect = nullptr) {
  const auto divergence = check_case(c, expect);
  if (!divergence) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << divergence->check << " — " << divergence->detail;
}

TEST(Differential, PassesOnDeterministicCliqueFixtures) {
  // Positive (K_4 contains K_3) and negative (C_5 has no triangle).
  CaseExpectation expect;
  EXPECT_TRUE(clean(k4_case(), &expect));
  EXPECT_TRUE(expect.truth);
  EXPECT_TRUE(expect.detected);

  FuzzCase neg;
  neg.program = ProgramKind::Clique;
  neg.param = 3;
  neg.num_vertices = 5;
  neg.edges = build::cycle(5).edges();
  EXPECT_TRUE(clean(neg, &expect));
  EXPECT_FALSE(expect.truth);
  EXPECT_FALSE(expect.detected);
}

TEST(Differential, PassesOnRandomizedDetectorsWithFaults) {
  FuzzCase c;
  c.program = ProgramKind::PipelinedCycle;
  c.param = 4;
  c.num_vertices = 6;
  c.edges = build::cycle(6).edges();
  Graph host = build_graph(c);
  // Plant a C_4 chord so the pattern exists: 0-1-2-3-0 via edge {0, 3}.
  host.add_edge(0, 3);
  c.edges = host.edges();
  c.repetitions = 3;
  c.seed = 11;
  c.drop = 0.1;
  c.corrupt = 0.1;
  c.corrupt_headers = true;
  c.crashes = {{5, 3}};
  EXPECT_TRUE(clean(c));
}

TEST(Differential, PassesOnTreeAndEvenCycleFixtures) {
  FuzzCase tree;
  tree.program = ProgramKind::Tree;
  tree.param = 1;  // K_{1,3}
  tree.num_vertices = 7;
  tree.edges = build::star(4).edges();
  tree.repetitions = 2;
  tree.seed = 3;
  EXPECT_TRUE(clean(tree));

  FuzzCase ec;
  ec.program = ProgramKind::EvenCycle;
  ec.param = 4;
  ec.num_vertices = 8;
  ec.edges = build::complete_bipartite(2, 3).edges();  // contains C_4
  ec.repetitions = 2;
  ec.seed = 5;
  EXPECT_TRUE(clean(ec));
}

TEST(Shrink, MinimizesUnderASyntheticPredicate) {
  // "Failing" = the case still contains edge {0, 1} and a crash event.
  const CasePredicate predicate = [](const FuzzCase& c) {
    const bool has_edge =
        std::find(c.edges.begin(), c.edges.end(),
                  std::make_pair(Vertex{0}, Vertex{1})) != c.edges.end();
    return has_edge && !c.crashes.empty();
  };
  FuzzCase big;
  big.program = ProgramKind::Clique;
  big.param = 3;
  big.num_vertices = 12;
  big.edges = build::complete(12).edges();
  big.repetitions = 1;
  big.drop = 0.3;
  big.corrupt = 0.2;
  big.corrupt_headers = true;
  big.max_delay = 8;
  big.crashes = {{1, 2}, {2, 1}, {0, 0}};
  ASSERT_TRUE(predicate(big));

  const FuzzCase small = shrink_case(big, predicate, 2000);
  EXPECT_TRUE(predicate(small));
  EXPECT_EQ(small.edges.size(), 1u);  // only {0, 1} survives
  EXPECT_EQ(small.crashes.size(), 1u);
  EXPECT_EQ(small.drop, 0.0);
  EXPECT_EQ(small.corrupt, 0.0);
  EXPECT_FALSE(small.corrupt_headers);
  EXPECT_EQ(small.max_delay, 1u);
  // Trailing isolated vertices trimmed down to the pattern size.
  EXPECT_EQ(small.num_vertices, 3u);
}

TEST(Shrink, RejectsAPassingCase) {
  const CasePredicate never = [](const FuzzCase&) { return false; };
  EXPECT_THROW(shrink_case(k4_case(), never, 10), CheckFailure);
}

TEST(Fuzzer, CorpusEntryRoundTrips) {
  const FuzzCase c = k4_case();
  const Divergence d{"sync-vs-async-verdicts", "details here"};
  const obs::Json doc = corpus_entry(c, d);
  CaseExpectation expect;
  Divergence found;
  const FuzzCase back =
      corpus_case(obs::Json::parse(doc.dump()), &expect, &found);
  EXPECT_EQ(back, c);
  EXPECT_EQ(found.check, d.check);
  EXPECT_EQ(found.detail, d.detail);
  EXPECT_TRUE(expect.truth);      // K_4 contains K_3
  EXPECT_TRUE(expect.detected);   // the deterministic detector finds it
}

TEST(Differential, ResumeContractHoldsAcrossGeneratedCases) {
  // check_case now verifies the async checkpoint/kill/resume contract
  // (fault-free and faulty), supervised slice-resume at --jobs 1 and 4,
  // and the node-recovery oracle. Sweep a fixed window of generated
  // cases wide enough to exercise every one of those paths, including the
  // scheduled-crash cases the recovery oracle needs.
  std::uint32_t crash_cases = 0;
  for (std::uint64_t seed = 500; seed < 530; ++seed) {
    const FuzzCase c = generate_case(seed);
    if (!c.crashes.empty()) ++crash_cases;
    EXPECT_TRUE(clean(c)) << "case seed " << seed;
  }
  EXPECT_GE(crash_cases, 5u);  // the window must keep covering recovery
}

TEST(Fuzzer, FixedSeedSmokeRunFindsNoDivergence) {
  FuzzOptions options;
  options.seconds = 0.0;  // case-count bound only
  options.max_cases = 25;
  options.seed = 1;
  std::ostringstream log;
  const FuzzReport report = run_fuzzer(options, log);
  EXPECT_EQ(report.cases, 25u);
  EXPECT_TRUE(report.ok()) << log.str();
}

}  // namespace
}  // namespace csd::fuzz
