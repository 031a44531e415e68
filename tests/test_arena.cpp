// Arena frame-plane tests.
//
// The zero-copy delivery path (congest/frame_arena.hpp: a message stays in
// its sender's slot and landing it sets a presence byte) must be an
// invisible optimization: every engine produces the same verdicts,
// metrics, traces, and snapshots it produced when each message was an
// owned heap box. The sweeps here pin that down four ways:
//   * direct FrameArena unit checks (addressing, reset semantics);
//   * a 50-case differential fuzz sweep (both engines, faults on and off,
//     checkpoint/kill/resume) — any payload aliasing or stale-slot bug in
//     the delivery shows up as a cross-engine divergence;
//   * a probe program whose every inbox must hold exactly the neighbour's
//     previous-round message, run through the kernel at 1, 2 and 4
//     workers and through the async engine under drops;
//   * a snapshot round trip through the async engine's arena-fed inbox
//     log, plus an accounting regression that drives more than 2^32 bits
//     through a run (a 32-bit intermediate anywhere in the counters would
//     wrap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "congest/async.hpp"
#include "congest/frame_arena.hpp"
#include "congest/network.hpp"
#include "congest/snapshot.hpp"
#include "detect/pipelined_cycle.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"
#include "graph/builders.hpp"
#include "obs/json.hpp"
#include "obs/trace_analysis.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

// ---------------------------------------------------------------- arena --
TEST(FrameArena, RowsFollowCsrOffsets) {
  const Graph g = build::path(4);  // degrees 1, 2, 2, 1
  const GraphCsr csr = g.csr();
  detail::FrameArena arena(csr.num_directed_edges());
  EXPECT_EQ(arena.size(), 6u);
  // A node's row starts at its CSR offset; rows are contiguous slices of
  // one flat allocation, for both the payload and the presence planes.
  const auto& at = csr.offsets;
  EXPECT_EQ(arena.payload_row(at[0]) + 1, arena.payload_row(at[1]));
  EXPECT_EQ(arena.payload_row(at[1]) + 2, arena.payload_row(at[2]));
  EXPECT_EQ(arena.present_row(at[0]) + 1, arena.present_row(at[1]));
  EXPECT_EQ(arena.present_row(at[1]) + 2, arena.present_row(at[2]));
  EXPECT_EQ(&arena.payload(at[2] + 1), arena.payload_row(at[2]) + 1);
  EXPECT_EQ(&arena.present(at[2] + 1), arena.present_row(at[2]) + 1);
  // The last row ends at the arena's end.
  EXPECT_EQ(arena.payload_row(at[3]) + 1, arena.payload_row(arena.size()));
  // clear_row clears one row's presence bytes and no other.
  for (std::uint64_t e = 0; e < arena.size(); ++e) arena.present(e) = 1;
  arena.clear_row(at[1], 2);
  for (std::uint64_t e = 0; e < arena.size(); ++e)
    EXPECT_EQ(arena.present(e), e == at[1] || e == at[1] + 1 ? 0 : 1) << e;
}

TEST(FrameArena, ResetClearsPresenceOfAnInlinePayload) {
  detail::FrameArena arena(build::complete(3).csr().num_directed_edges());
  // A payload of at most BitVec::kInlineBits bits lives in the slot itself.
  arena.payload(0).append_bits(0xabcdef, 24);
  arena.present(0) = 1;
  EXPECT_FALSE(arena.payload(0).on_heap());
  arena.reset_presence();
  EXPECT_EQ(arena.present(0), 0);
  // Presence is the only truth: the payload keeps its (now unobservable)
  // contents, and refilling it up to 128 bits never touches the heap.
  EXPECT_EQ(arena.payload(0).read_bits(0, 24), 0xabcdefu);
  arena.payload(0).clear();
  arena.payload(0).append_bits(~0ULL, 64);
  arena.payload(0).append_bits(~0ULL, 64);
  EXPECT_FALSE(arena.payload(0).on_heap());
}

TEST(FrameArena, ResetClearsPresenceAndKeepsPayloadStorage) {
  detail::FrameArena arena(build::complete(3).csr().num_directed_edges());
  // Above BitVec::kInlineBits bits the payload moves to a heap buffer.
  for (int w = 0; w < 3; ++w) arena.payload(0).append_bits(0xabcdef, 64);
  arena.present(0) = 1;
  ASSERT_TRUE(arena.payload(0).on_heap());
  const std::uint64_t* storage = arena.payload(0).words().data();
  arena.reset_presence();
  EXPECT_EQ(arena.present(0), 0);
  // After a clear the slot keeps its heap storage — no reallocation.
  arena.payload(0).clear();
  arena.payload(0).append_bits(0x1, 1);
  EXPECT_EQ(arena.payload(0).words().data(), storage);
}

// ------------------------------------------------------- fuzz sweep ------
testing::AssertionResult clean(const fuzz::FuzzCase& c) {
  const auto divergence = fuzz::check_case(c);
  if (!divergence) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << divergence->check << " — " << divergence->detail;
}

TEST(ArenaDifferential, FiftyGeneratedCasesStayByteIdentical) {
  // A dedicated seed window (disjoint from test_fuzz's) wide enough that
  // the generator covers faulty and fault-free cases on every program
  // family. check_case cross-checks sync vs async (raw and reliable),
  // traces byte-for-byte, the --jobs determinism of the supervisor, and the
  // checkpoint/kill/resume contract — all of which read the arena slots.
  std::uint32_t faulty = 0, fault_free = 0;
  for (std::uint64_t seed = 9000; seed < 9050; ++seed) {
    const fuzz::FuzzCase c = fuzz::generate_case(seed);
    const bool has_faults =
        c.drop > 0.0 || c.corrupt > 0.0 || !c.crashes.empty();
    (has_faults ? faulty : fault_free) += 1;
    EXPECT_TRUE(clean(c)) << "case seed " << seed;
  }
  // The sweep must keep exercising both sides of the fault gate.
  EXPECT_GE(faulty, 10u);
  EXPECT_GE(fault_free, 10u);
}

// ------------------------------------------- snapshot through the arena --
TEST(ArenaSnapshot, AsyncInboxLogSurvivesTheRoundTrip) {
  Rng rng(13);
  const Graph g = build::gnp(10, 0.35, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 48;
  cfg.max_pulses = 80;
  cfg.seed = 33;
  cfg.max_delay = 4;
  cfg.recovery.enabled = true;  // turns on the arena-fed inbox log
  cfg.checkpoint_at_pulse = 5;
  const auto full = run_async(g, cfg, factory);
  ASSERT_NE(full.checkpoint, nullptr);

  const obs::Json doc = to_json(*full.checkpoint);
  const Snapshot reparsed = snapshot_from_json(obs::Json::parse(doc.dump()));
  const auto resumed = resume_async(g, cfg, factory, reparsed);
  EXPECT_EQ(resumed.verdicts, full.verdicts);
  EXPECT_EQ(resumed.detected, full.detected);
  EXPECT_EQ(resumed.completed, full.completed);
  EXPECT_EQ(resumed.pulses, full.pulses);
  EXPECT_EQ(resumed.payload_bits, full.payload_bits);
  EXPECT_EQ(resumed.overhead_bits, full.overhead_bits);
}

// ------------------------------------------------- which slot is read ----
/// Sends on every port in the rounds r < `rounds` where (r + id) mod 3 != 0
/// and sleeps until its next such round otherwise; halts in round `rounds`.
/// A message names (round, sender, receiver) in 40 bits, repeated up to
/// `bits` bits. Whenever the node runs in round r it rejects unless each
/// inbox holds exactly that neighbour's round r - 1 message, or nothing
/// when the neighbour did not send in r - 1: a message from two rounds
/// back must never reappear.
class SlotProbeProgram final : public NodeProgram {
 public:
  SlotProbeProgram(std::uint64_t bits, std::uint64_t rounds)
      : bits_(bits), rounds_(rounds) {}

  static bool sends_in(std::uint64_t r, NodeId id) { return (r + id) % 3 != 0; }

  void on_round(NodeApi& api) override {
    const std::uint64_t r = api.round();
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      const BitVec* got = api.inbox(p);
      const NodeId from = api.neighbor_id(p);
      if (r == 0 || !sends_in(r - 1, from)) {
        if (got != nullptr) api.reject();
        continue;
      }
      write(expected_, r - 1, from, api.id());
      if (got == nullptr || !(*got == expected_)) api.reject();
    }
    if (r >= rounds_) {
      api.halt();
      return;
    }
    if (sends_in(r, api.id())) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        BitVec message = api.scratch();
        write(message, r, api.id(), api.neighbor_id(p));
        api.send(p, std::move(message));
      }
    }
    // Every node runs the halting round.
    api.sleep_until(std::min(sends_in(r + 1, api.id()) ? r + 1 : r + 2,
                             rounds_));
  }

 private:
  void write(BitVec& out, std::uint64_t r, NodeId from, NodeId to) const {
    const std::uint64_t word = (r & 0xff) |
                               (static_cast<std::uint64_t>(from) << 8) |
                               (static_cast<std::uint64_t>(to) << 24);
    out.clear();
    for (std::uint64_t left = bits_; left > 0;) {
      const unsigned chunk = left < 40 ? static_cast<unsigned>(left) : 40u;
      out.append_bits(word, chunk);
      left -= chunk;
    }
  }

  std::uint64_t bits_;
  std::uint64_t rounds_;
  BitVec expected_;
};

/// Runs SlotProbeProgram on `g` through every engine path that reads the
/// arena slots; no node may reject.
void probe_slots(const Graph& g) {
  const std::uint64_t rounds = 13;
  // 40 bits stay inline in their slot; 200 bits live in heap buffers that
  // scratch() recycles.
  for (const auto& [bits, bandwidth] :
       {std::pair<std::uint64_t, std::uint64_t>{40, 40}, {200, 0}}) {
    const ProgramFactory factory = [bits = bits, rounds](std::uint32_t) {
      return std::make_unique<SlotProbeProgram>(bits, rounds);
    };
    for (const std::uint32_t workers : {1u, 2u, 4u}) {
      NetworkConfig cfg;
      cfg.bandwidth = bandwidth;
      cfg.max_rounds = rounds + 2;
      cfg.shard.workers = workers;
      const Network net(g, cfg);
      // A later run reads slots an earlier run left behind.
      for (std::uint64_t seed = 5; seed <= 6; ++seed) {
        const RunOutcome out = net.run(factory, seed);
        SCOPED_TRACE(testing::Message() << bits << " bits, W = " << workers
                                        << ", seed " << seed);
        EXPECT_TRUE(out.completed);
        EXPECT_FALSE(out.detected);
        EXPECT_GT(out.metrics.messages, 0u);
      }
    }
    for (const TransportMode transport :
         {TransportMode::Raw, TransportMode::Reliable}) {
      AsyncConfig cfg;
      cfg.bandwidth = bandwidth;
      cfg.max_pulses = rounds + 2;
      cfg.seed = 9;
      cfg.max_delay = 4;
      cfg.faults.drop = 0.2;
      cfg.transport = transport;
      const AsyncRunOutcome out = run_async(g, cfg, factory);
      SCOPED_TRACE(testing::Message() << bits << " bits, transport "
                                      << static_cast<int>(transport));
      EXPECT_FALSE(out.detected);
      EXPECT_GT(out.faults.frames_dropped, 0u);
      if (transport == TransportMode::Reliable) {
        EXPECT_TRUE(out.completed);
      }
    }
  }
}

TEST(ArenaSlots, EachInboxReadsTheNeighboursPreviousRoundMessage) {
  Rng rng(71);
  probe_slots(build::gnp(20, 0.35, rng));
  // On a tree's leaves a sleeper often has no mail to wake it.
  probe_slots(build::random_tree(20, rng));
}

// ------------------------------------------------ overflow regression ----
/// Broadcasts `payload_bits` of ones every round for `rounds` rounds.
class FirehoseProgram final : public NodeProgram {
 public:
  FirehoseProgram(std::uint64_t payload_bits, std::uint64_t rounds)
      : payload_bits_(payload_bits), rounds_(rounds) {}

  void on_round(NodeApi& api) override {
    if (api.round() >= rounds_) {
      api.halt();
      return;
    }
    api.broadcast(BitVec(static_cast<std::size_t>(payload_bits_), true));
  }

 private:
  std::uint64_t payload_bits_;
  std::uint64_t rounds_;
};

TEST(OverflowRegression, AccountingSurvivesMoreThan32BitsOfTraffic) {
  // Two nodes, unbounded bandwidth, 2^28-bit payloads: 9 rounds of
  // bidirectional broadcast put 2 * 9 * 2^28 = 4.83e9 > 2^32 bits through
  // the counters. A 32-bit intermediate in total_bits, bits_sent_by_node,
  // the per-node trace totals, or the histogram bucketing would wrap.
  constexpr std::uint64_t kPayloadBits = 1ULL << 28;
  constexpr std::uint64_t kRounds = 9;
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 0;  // LOCAL model: no clamp on the firehose
  cfg.max_rounds = kRounds + 2;
  cfg.seed = 1;
  cfg.trace.enabled = true;
  const auto outcome = run_congest(g, cfg, [&](std::uint32_t) {
    return std::make_unique<FirehoseProgram>(kPayloadBits, kRounds);
  });
  ASSERT_TRUE(outcome.completed);
  const std::uint64_t expected = 2 * kRounds * kPayloadBits;
  ASSERT_GT(expected, std::uint64_t{1} << 32);
  EXPECT_EQ(outcome.metrics.total_bits, expected);
  EXPECT_EQ(outcome.metrics.messages, 2 * kRounds);
  EXPECT_EQ(outcome.metrics.max_message_bits, kPayloadBits);
  ASSERT_EQ(outcome.metrics.bits_sent_by_node.size(), 2u);
  EXPECT_EQ(outcome.metrics.bits_sent_by_node[0], kRounds * kPayloadBits);
  EXPECT_EQ(outcome.metrics.bits_sent_by_node[1], kRounds * kPayloadBits);
  EXPECT_EQ(obs::trace_counts(outcome.trace.instance()).total_bits, expected);
  // 2^28 lands in histogram bucket bit_width(2^28) = 29, counted 2R times.
  const auto& histogram = *outcome.trace.instance().size_histogram;
  ASSERT_GT(histogram.size(), 29u);
  EXPECT_EQ(histogram[29], 2 * kRounds);
}

TEST(OverflowRegression, AsyncPayloadAccountingMatchesAtScale) {
  constexpr std::uint64_t kPayloadBits = 1ULL << 28;
  constexpr std::uint64_t kRounds = 9;
  const Graph g = build::path(2);
  AsyncConfig cfg;
  cfg.bandwidth = 0;
  cfg.max_pulses = kRounds + 2;
  cfg.seed = 1;
  cfg.max_delay = 3;
  const auto outcome = run_async(g, cfg, [&](std::uint32_t) {
    return std::make_unique<FirehoseProgram>(kPayloadBits, kRounds);
  });
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.payload_bits, 2 * kRounds * kPayloadBits);
  // The synchronizer also emits empty frames at the halt pulse, so the
  // frame count only bounds the payload-carrying ones from below.
  EXPECT_GE(outcome.frames, 2 * kRounds);
}

}  // namespace
}  // namespace csd::congest
