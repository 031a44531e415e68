// Tests for the batched measurement data path: simulate_across_cut_batch's
// bit-identity to the sequential simulator at every jobs count, round-keyed
// max-bits accounting, the batched one-round evaluator, the bootstrap
// exponent fits, and the sampled transcript-collision probe.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "comm/cut_simulator.hpp"
#include "detect/triangle.hpp"
#include "graph/builders.hpp"
#include "lowerbound/fooling.hpp"
#include "lowerbound/gkn.hpp"
#include "lowerbound/oneround.hpp"
#include "obs/lb_fit.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace csd::comm {
namespace {

// ----------------------------------------------- batch vs sequential ----
TEST(CutBatch, BatchMatchesSequentialBitForBitAtEveryJobsCount) {
  const auto frame = lb::build_gkn_frame(2, 16);
  const auto owner = lb::gkn_ownership(frame.layout);
  congest::NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 4;
  const auto factory = random_traffic_program(2);
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15, 16};

  // Sequential oracle: one simulate_across_cut per seed.
  std::vector<CutCost> expected;
  for (const std::uint64_t s : seeds) {
    congest::NetworkConfig per_seed = cfg;
    per_seed.seed = s;
    expected.push_back(simulate_across_cut(frame.graph, owner, per_seed,
                                           factory));
  }
  const std::uint64_t structural = count_cut_edges(frame.graph, owner);

  for (const unsigned jobs : {1u, 2u, 5u}) {
    const auto batch = simulate_across_cut_batch(frame.graph, owner, cfg,
                                                 factory, seeds, jobs);
    ASSERT_EQ(batch.size(), seeds.size()) << "jobs " << jobs;
    EXPECT_EQ(batch.cut_edges, structural);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(batch.seeds[i], seeds[i]);
      EXPECT_EQ(batch.bits_alice_to_bob[i], expected[i].bits_alice_to_bob)
          << "jobs " << jobs << " seed " << seeds[i];
      EXPECT_EQ(batch.bits_bob_to_alice[i], expected[i].bits_bob_to_alice);
      EXPECT_EQ(batch.crossing_messages[i], expected[i].crossing_messages);
      EXPECT_EQ(batch.max_bits_per_round[i], expected[i].max_bits_per_round);
      EXPECT_EQ(batch.rounds[i], expected[i].outcome.metrics.rounds);
      EXPECT_EQ(batch.cut_edges, expected[i].cut_edges);
    }
  }
}

TEST(CutBatch, TrafficProgramIsSeedDeterministicWithSeedDependentSpread) {
  const Graph g = build::path(5);
  const std::vector<Owner> owner = {Owner::Alice, Owner::Alice, Owner::Shared,
                                    Owner::Bob, Owner::Bob};
  congest::NetworkConfig cfg;
  cfg.bandwidth = 24;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const auto a = simulate_across_cut_batch(g, owner, cfg,
                                           random_traffic_program(3), seeds);
  const auto b = simulate_across_cut_batch(g, owner, cfg,
                                           random_traffic_program(3), seeds);
  bool any_spread = false;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(a.total_crossing_bits(i), b.total_crossing_bits(i));
    EXPECT_GT(a.total_crossing_bits(i), 0u);
    any_spread |= a.total_crossing_bits(i) != a.total_crossing_bits(0);
  }
  // The probe exists to give multi-seed batches nonzero spread.
  EXPECT_TRUE(any_spread);
}

// --------------------------------------------- round-keyed bit account --
TEST(CutBatch, MaxBitsPerRoundTracksTheLoudestRoundNotTheLast) {
  // Per-round crossing profile 4, 24, 4 bits: an accounting that only
  // watches the current round (or assumes the loudest round is the final
  // one) reports 4; the round-keyed accounting must report 24.
  class PulseProgram final : public congest::NodeProgram {
   public:
    void on_round(congest::NodeApi& api) override {
      const std::uint64_t width = api.round() == 1 ? 12 : 2;
      BitVec payload(width, true);
      api.broadcast(payload);
      if (api.round() == 2) api.halt();
    }
  };
  const Graph g = build::path(3);
  const std::vector<Owner> owner = {Owner::Alice, Owner::Shared, Owner::Bob};
  congest::NetworkConfig cfg;
  cfg.bandwidth = 16;
  const auto factory = [](std::uint32_t) {
    return std::make_unique<PulseProgram>();
  };
  const auto cost = simulate_across_cut(g, owner, cfg, factory);
  // Round 1: A→shared 12 + B→shared 12 crossing bits.
  EXPECT_EQ(cost.max_bits_per_round, 24u);
  EXPECT_EQ(cost.total_crossing_bits(), 2u * (2 + 12 + 2));

  const auto batch = simulate_across_cut_batch(g, owner, cfg, factory,
                                               {1, 2}, 2);
  EXPECT_EQ(batch.max_bits_per_round[0], 24u);
  EXPECT_EQ(batch.max_bits_per_round[1], 24u);
}

// -------------------------------------------- batched one-round sweeps --
TEST(CutBatch, OneRoundBatchIsBitIdenticalToSequentialEvaluation) {
  const auto bloom = lb::make_bloom_protocol(7);
  const std::vector<std::uint64_t> seeds = {31, 32, 33};
  std::vector<lb::OneRoundStats> expected;
  for (const std::uint64_t s : seeds)
    expected.push_back(lb::evaluate_one_round(*bloom, 32, 24, 200, s));

  for (const unsigned jobs : {1u, 3u}) {
    const auto rows =
        lb::evaluate_one_round_batch(*bloom, 32, 24, 200, seeds, {jobs});
    ASSERT_EQ(rows.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(rows[i].error, expected[i].error) << "jobs " << jobs;
      EXPECT_EQ(rows[i].false_negative, expected[i].false_negative);
      EXPECT_EQ(rows[i].false_positive, expected[i].false_positive);
      EXPECT_EQ(rows[i].info_messages_raw, expected[i].info_messages_raw);
      EXPECT_EQ(rows[i].info_messages_null_raw,
                expected[i].info_messages_null_raw);
    }
  }
}

TEST(CutBatch, FastSamplingIsJobsInvariantAndGatedOnInvariance) {
  const auto bloom = lb::make_bloom_protocol(7);
  lb::OneRoundBatchOptions fast;
  fast.fast_sampling = true;
  fast.jobs = 1;
  const auto one = lb::evaluate_one_round_batch(*bloom, 32, 24, 400, {41}, fast);
  fast.jobs = 3;
  const auto three =
      lb::evaluate_one_round_batch(*bloom, 32, 24, 400, {41}, fast);
  EXPECT_EQ(one[0].error, three[0].error);
  EXPECT_EQ(one[0].info_messages_raw, three[0].info_messages_raw);

  // A protocol that does not declare permutation invariance must not be
  // evaluated through the permutation-free sampler.
  class OpaqueProtocol final : public lb::OneRoundProtocol {
   public:
    std::string name() const override { return "opaque"; }
    BitVec message(const lb::SpecialInput&, std::uint64_t bandwidth,
                   Rng&) const override {
      return BitVec(bandwidth, false);
    }
    bool rejects(const lb::GtSample&, std::uint32_t, const BitVec*,
                 const BitVec*, std::uint64_t) const override {
      return false;
    }
  };
  const OpaqueProtocol opaque;
  EXPECT_THROW(lb::evaluate_one_round_batch(opaque, 16, 8, 50, {1}, fast),
               CheckFailure);
}

TEST(CutBatch, InteractiveSlicedIsExactAboveTheQueryWidth) {
  const std::uint64_t n = 64;
  const std::uint64_t query_bits = wire::bits_for(n * n * n) + 1;
  const auto exact = lb::evaluate_interactive_sliced(n, query_bits, 1 << 16, 71);
  EXPECT_EQ(exact.error, 0.0);  // exactly: the protocol answers correctly
  const auto starved = lb::evaluate_interactive_sliced(n, 8, 1 << 16, 71);
  // Without room for the query the decision degenerates to the trivial
  // predictor: error 1/8 (the all-edges-present cell of μ).
  EXPECT_NEAR(starved.error, 0.125, 0.01);
}

// ----------------------------------------------------- bootstrap fits ---
TEST(CutBatch, BootstrapFitRecoversExponentDeterministically) {
  // y = 2 x^0.7 with small multiplicative per-seed jitter.
  Rng rng(61);
  std::vector<std::pair<double, double>> xy;
  for (const double x : {16.0, 32.0, 64.0, 128.0, 256.0})
    for (int s = 0; s < 5; ++s) {
      const double jitter = 0.97 + 0.06 * static_cast<double>(rng.below(1000)) / 1000.0;
      xy.emplace_back(x, 2.0 * std::pow(x, 0.7) * jitter);
    }
  const auto fit = obs::bootstrap_power_law(xy, 300, 9);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->fit.exponent, 0.7, 0.05);
  EXPECT_LE(fit->exponent_lo, fit->exponent_hi);
  EXPECT_NEAR(fit->exponent_lo, 0.7, 0.08);
  EXPECT_NEAR(fit->exponent_hi, 0.7, 0.08);
  EXPECT_EQ(fit->dropped_points, 0u);

  // Deterministic: the same inputs give bit-identical intervals.
  const auto again = obs::bootstrap_power_law(xy, 300, 9);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(fit->fit.exponent, again->fit.exponent);
  EXPECT_EQ(fit->exponent_lo, again->exponent_lo);
  EXPECT_EQ(fit->exponent_hi, again->exponent_hi);

  // resamples == 0: the interval degenerates to the point estimate.
  const auto point = obs::bootstrap_power_law(xy, 0, 9);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->exponent_lo, point->fit.exponent);
  EXPECT_EQ(point->exponent_hi, point->fit.exponent);
}

// --------------------------------------- sampled transcript collisions --
TEST(CutBatch, TranscriptSamplingIsJobsInvariantAndPressureSensitive) {
  const auto report_at = [](std::uint32_t c, unsigned jobs) {
    lb::FoolingConfig cfg;
    cfg.namespace_size = 24;
    cfg.algorithm = detect::id_exchange_triangle_program(c);
    cfg.bandwidth = 64;
    cfg.max_rounds = 8;
    return lb::sample_transcript_collisions(cfg, 500, 9, jobs);
  };
  const auto seq = report_at(3, 1);
  const auto fan = report_at(3, 3);
  EXPECT_EQ(seq.samples, 500u);
  EXPECT_EQ(seq.part_size, 8u);
  EXPECT_EQ(seq.distinct_transcripts, fan.distinct_transcripts);
  EXPECT_EQ(seq.largest_class, fan.largest_class);
  EXPECT_EQ(seq.collision_pairs, fan.collision_pairs);
  EXPECT_EQ(seq.max_total_bits_per_node, fan.max_total_bits_per_node);
  EXPECT_EQ(seq.all_triangles_rejected, fan.all_triangles_rejected);

  // Fewer budget bits -> more pigeonhole pressure: colliding pairs track
  // C(S,2)/2^(3c), so each extra bit cuts them 8-fold. (Beyond c = 3 the
  // truncated ids are already injective on a part of size 8, so the curve
  // flattens at the duplicate-triple floor — stay below that.)
  EXPECT_GT(report_at(1, 1).collision_pairs, report_at(2, 1).collision_pairs);
  EXPECT_GT(report_at(2, 1).collision_pairs, seq.collision_pairs);
}

}  // namespace
}  // namespace csd::comm
