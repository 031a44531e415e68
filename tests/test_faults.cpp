// Unit tests for the fault-injection layer and the reliable ARQ transport:
// CRC correctness, deterministic fault fates, crash scheduling, and the
// sender/receiver protocol state machines (acks, reordering, duplicates,
// backoff, bounded retries) — all without spinning up an engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "congest/async.hpp"
#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

// ------------------------------------------------------------------ CRC --
TEST(Crc32, KnownAnswerCheckValue) {
  // The canonical CRC-32 check value: ASCII "123456789" -> 0xCBF43926.
  // Bytes are fed LSB-first, the reflected algorithm's bit order.
  Crc32 crc;
  for (const char c : std::string("123456789"))
    crc.bits(static_cast<std::uint64_t>(static_cast<unsigned char>(c)), 8);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  BitVec payload;
  payload.append_bits(0xDEADBEEFCAFEULL, 48);
  const std::uint32_t reference = crc32_bits(payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    BitVec flipped = payload;
    flipped.flip(i);
    EXPECT_NE(crc32_bits(flipped), reference) << "missed flip at bit " << i;
  }
}

TEST(Crc32, PacketChecksumCoversSeqPulseAndFlags) {
  const TransportConfig cfg;
  Frame frame;
  frame.payload.emplace();
  frame.payload->append_bits(0b1011, 4);
  const std::uint32_t base = packet_checksum(7, frame, cfg);
  EXPECT_NE(packet_checksum(8, frame, cfg), base);  // seq covered
  Frame halted = frame;
  halted.sender_halted = true;
  EXPECT_NE(packet_checksum(7, halted, cfg), base);  // flag covered
  Frame empty;
  EXPECT_NE(packet_checksum(7, empty, cfg), base);  // has_payload covered
  // Regression: the pulse field rides on every frame and the synchronizer
  // hard-depends on it, so the CRC must cover it — a single flipped pulse
  // bit must change the checksum (historically it did not).
  for (unsigned bit = 0; bit < Frame::kPulseWireBits; ++bit) {
    Frame pulse_flip = frame;
    pulse_flip.pulse ^= 1ULL << bit;
    EXPECT_NE(packet_checksum(7, pulse_flip, cfg), base)
        << "pulse bit " << bit << " not covered by the CRC";
  }
}

/// The bit-serial CRC-32 definition, one polynomial step per bit: the
/// oracle the byte-table path must equal.
class BitSerialCrc32 {
 public:
  void bit(bool b) {
    const bool mix = ((state_ ^ static_cast<std::uint32_t>(b)) & 1u) != 0;
    state_ >>= 1;
    if (mix) state_ ^= 0xedb88320u;
  }
  void bits(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) bit(((value >> i) & 1ULL) != 0);
  }
  void raw(const BitVec& v) {
    for (std::size_t i = 0; i < v.size(); ++i) bit(v.get(i));
  }
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// A random bit vector of `length` bits.
BitVec random_bits(Rng& rng, std::size_t length) {
  BitVec v;
  for (std::size_t i = 0; i < length; ++i) v.push_back(rng.below(2) == 1);
  return v;
}

TEST(Crc32, TablePathEqualsTheBitSerialDefinition) {
  Rng rng(2024);
  // raw() at every length up to three words: whole bytes, whole words and
  // every remainder in between.
  for (std::size_t length = 0; length <= 192; ++length) {
    const BitVec v = random_bits(rng, length);
    BitSerialCrc32 serial;
    serial.raw(v);
    EXPECT_EQ(crc32_bits(v), serial.value()) << "length " << length;
  }
  // Random runs of bits(v, w) for every w in 0..64 (with garbage above w),
  // bit(), and raw(), in any order: the state after every call must match.
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 table;
    BitSerialCrc32 serial;
    for (int op = 0; op < 40; ++op) {
      switch (rng.below(3)) {
        case 0: {
          const auto width = static_cast<unsigned>(rng.below(65));
          const std::uint64_t value = rng();
          table.bits(value, width);
          serial.bits(value, width);
          break;
        }
        case 1: {
          const bool b = rng.below(2) == 1;
          table.bit(b);
          serial.bit(b);
          break;
        }
        default: {
          const BitVec v = random_bits(rng, rng.below(300));
          table.raw(v);
          serial.raw(v);
          break;
        }
      }
      ASSERT_EQ(table.value(), serial.value()) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------------- injector --
TEST(FaultInjector, DeterministicPerLinkStreams) {
  const Graph g = build::cycle(5);
  FaultPlan plan;
  plan.drop = 0.4;
  plan.corrupt = 0.3;
  FaultInjector a(plan, 99, g.csr());
  FaultInjector b(plan, 99, g.csr());
  FaultInjector other_seed(plan, 100, g.csr());
  bool any_difference = false;
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.next_fate(2, 1, 64);
    const auto fb = b.next_fate(2, 1, 64);
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.corrupted, fb.corrupted);
    EXPECT_EQ(fa.corrupt_bit, fb.corrupt_bit);
    const auto fo = other_seed.next_fate(2, 1, 64);
    any_difference |= fa.dropped != fo.dropped || fa.corrupted != fo.corrupted;
  }
  EXPECT_TRUE(any_difference) << "seed does not influence fates";
}

TEST(FaultInjector, FatesIndependentOfPayloadSize) {
  // The drop/corrupt decisions must not depend on payload size (only the
  // corrupt-bit position does), so accounting-order differences between
  // engines cannot change the fault pattern.
  const Graph g = build::path(2);
  FaultPlan plan;
  plan.drop = 0.5;
  FaultInjector a(plan, 7, g.csr());
  FaultInjector b(plan, 7, g.csr());
  for (int i = 0; i < 100; ++i) {
    const auto fa = a.next_fate(0, 0, 8);
    const auto fb = b.next_fate(0, 0, 1024);
    EXPECT_EQ(fa.dropped, fb.dropped);
  }
}

TEST(FaultInjector, NoPayloadNeverCorrupts) {
  const Graph g = build::path(2);
  FaultPlan plan;
  plan.corrupt = 1.0;
  FaultInjector inj(plan, 3, g.csr());
  for (int i = 0; i < 50; ++i) {
    const auto fate = inj.next_fate(0, 0, 0);
    EXPECT_FALSE(fate.corrupted);
    EXPECT_FALSE(fate.dropped);
  }
  const auto fate = inj.next_fate(0, 0, 16);
  EXPECT_TRUE(fate.corrupted);
  EXPECT_LT(fate.corrupt_bit, 16u);
}

TEST(FaultInjector, EarliestCrashWinsAndValidates) {
  const Graph g = build::cycle(4);
  FaultPlan plan;
  plan.crashes = {{2, 9}, {2, 4}, {0, 1}};
  FaultInjector inj(plan, 1, g.csr());
  EXPECT_EQ(inj.crash_round(2), std::optional<std::uint64_t>(4));
  EXPECT_EQ(inj.crash_round(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(inj.crash_round(1), std::nullopt);

  FaultPlan bad;
  bad.crashes = {{7, 0}};  // node out of range
  EXPECT_THROW(FaultInjector(bad, 1, g.csr()), CheckFailure);
  FaultPlan bad_p;
  bad_p.drop = 1.5;
  EXPECT_THROW(FaultInjector(bad_p, 1, g.csr()), CheckFailure);
}

TEST(FaultInjector, WidePortsGetTheirOwnStreams) {
  // A star with 2^20 + 1 leaves. Under the key (v << 20) | p alone, the
  // hub's port 2^20 and leaf 1's port 0 would share one stream and draw
  // identical fates. A hand-built CSR spares the Graph build: the hub's row
  // is 1..L, each leaf's row is {0}.
  constexpr std::uint32_t kLeaves = (1u << 20) + 1;
  GraphCsr star;
  star.offsets.resize(kLeaves + 2);
  star.neighbors.resize(2 * std::size_t{kLeaves});
  for (std::uint32_t leaf = 1; leaf <= kLeaves; ++leaf) {
    star.neighbors[leaf - 1] = leaf;
    star.offsets[leaf + 1] = kLeaves + leaf;
  }
  star.offsets[1] = kLeaves;
  FaultPlan plan;
  plan.drop = 0.5;
  plan.corrupt = 0.5;
  FaultInjector inj(plan, 11, star);
  bool any_difference = false;
  for (int i = 0; i < 64; ++i) {
    const auto hub = inj.next_fate(0, 1u << 20, 64);
    const auto leaf = inj.next_fate(1, 0, 64);
    any_difference |= hub.dropped != leaf.dropped ||
                      hub.corrupted != leaf.corrupted ||
                      hub.corrupt_bit != leaf.corrupt_bit;
  }
  EXPECT_TRUE(any_difference) << "links (0, 2^20) and (1, 0) share a stream";
}

// ------------------------------------------------------- link sender ARQ --
Frame test_frame(std::uint64_t pulse, std::uint64_t bits = 8) {
  Frame frame;
  frame.pulse = pulse;
  frame.payload.emplace();
  frame.payload->append_bits(pulse * 17 + 3, static_cast<unsigned>(bits));
  return frame;
}

TEST(LinkSender, ConsecutiveSeqAndAckSettles) {
  LinkSender sender{TransportConfig{}};
  const DataPacket p0 = sender.packet(test_frame(0));
  const DataPacket p1 = sender.packet(test_frame(1));
  EXPECT_EQ(p0.seq, 0u);
  EXPECT_EQ(p1.seq, 1u);
  EXPECT_EQ(sender.in_flight(), 2u);
  EXPECT_TRUE(sender.on_ack(0));
  EXPECT_FALSE(sender.on_ack(0));  // duplicate ack is harmless
  EXPECT_EQ(sender.in_flight(), 1u);
  EXPECT_EQ(sender.on_timeout(0), LinkSender::TimeoutAction::Settled);
}

TEST(LinkSender, RetransmitPreservesPacketBits) {
  LinkSender sender{TransportConfig{}};
  const DataPacket original = sender.packet(test_frame(4, 32));
  EXPECT_EQ(sender.on_timeout(original.seq),
            LinkSender::TimeoutAction::Retransmit);
  const DataPacket again = sender.retransmit_packet(original.seq);
  EXPECT_EQ(again.seq, original.seq);
  EXPECT_EQ(again.crc, original.crc);
  EXPECT_EQ(packet_checksum(again.seq, again.frame, TransportConfig{}),
            again.crc);
}

TEST(LinkSender, ExponentialBackoffThenGiveUp) {
  TransportConfig cfg;
  cfg.max_retries = 3;
  LinkSender sender{cfg};
  const DataPacket p = sender.packet(test_frame(0));
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 10u);  // first transmission
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Retransmit);
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 20u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Retransmit);
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 40u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Retransmit);
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 80u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::GiveUp);
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Settled);
}

// ---------------------------------------------------- link receiver ARQ --
/// One packet into a fresh Accept.
LinkReceiver::Accept receive(LinkReceiver& receiver, DataPacket packet) {
  LinkReceiver::Accept accept;
  receiver.on_data(std::move(packet), accept);
  return accept;
}

TEST(LinkReceiver, InOrderDeliveryAndAcks) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  LinkReceiver::Accept accept;  // reused, as the engine does
  for (std::uint64_t i = 0; i < 4; ++i) {
    receiver.on_data(sender.packet(test_frame(i)), accept);
    EXPECT_TRUE(accept.send_ack);
    EXPECT_EQ(accept.ack_seq, i);
    EXPECT_FALSE(accept.duplicate);
    ASSERT_EQ(accept.deliver.size(), 1u);
    EXPECT_EQ(accept.deliver[0].pulse, i);
  }
  EXPECT_EQ(receiver.next_expected(), 4u);
}

TEST(LinkReceiver, ReorderBufferReleasesInSequence) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  const DataPacket p0 = sender.packet(test_frame(0));
  const DataPacket p1 = sender.packet(test_frame(1));
  const DataPacket p2 = sender.packet(test_frame(2));
  const auto late = receive(receiver, p2);  // out of order: buffered
  EXPECT_TRUE(late.send_ack);
  EXPECT_TRUE(late.deliver.empty());
  const auto mid = receive(receiver, p1);
  EXPECT_TRUE(mid.deliver.empty());
  const auto first = receive(receiver, p0);  // releases all three, in order
  ASSERT_EQ(first.deliver.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(first.deliver[i].pulse, i);
}

TEST(LinkReceiver, DuplicatesReAckedButNotRedelivered) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  const DataPacket p = sender.packet(test_frame(0));
  ASSERT_EQ(receive(receiver, p).deliver.size(), 1u);
  const auto dup = receive(receiver, p);  // retransmit after a lost ack
  EXPECT_TRUE(dup.send_ack);             // re-ack so the sender settles
  EXPECT_TRUE(dup.duplicate);
  EXPECT_TRUE(dup.deliver.empty());
}

TEST(LinkReceiver, CorruptedPacketRejectedWithoutAck) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  DataPacket p = sender.packet(test_frame(0, 16));
  p.frame.payload->flip(5);
  const auto accept = receive(receiver, p);
  EXPECT_TRUE(accept.checksum_reject);
  EXPECT_FALSE(accept.send_ack);
  EXPECT_TRUE(accept.deliver.empty());
  EXPECT_EQ(receiver.next_expected(), 0u);  // nothing delivered
}

TEST(LinkReceiver, CorruptedPulseRejectedByChecksum) {
  // Regression for the CRC gap: a flipped header (pulse) bit used to pass
  // the checksum and reach the synchronizer with a bogus pulse number. The
  // receiver must treat it exactly like a corrupted payload — discard, no
  // ack — so the sender's retransmission heals it.
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver{TransportConfig{}};
  DataPacket p = sender.packet(test_frame(3, 8));
  p.frame.pulse ^= 1ULL << 40;
  const auto accept = receive(receiver, p);
  EXPECT_TRUE(accept.checksum_reject);
  EXPECT_FALSE(accept.send_ack);
  EXPECT_TRUE(accept.deliver.empty());

  DataPacket clean = sender.retransmit_packet(p.seq);
  const auto healed = receive(receiver, clean);
  EXPECT_TRUE(healed.send_ack);
  ASSERT_EQ(healed.deliver.size(), 1u);
  EXPECT_EQ(healed.deliver[0].pulse, 3u);
}

TEST(LinkSender, SeqOverflowOfOnWireFieldIsRejected) {
  // TransportConfig::seq_bits is the width the wire carries and the CRC
  // hashes; the sender's 64-bit counter must never silently outgrow it.
  TransportConfig cfg;
  cfg.seq_bits = 2;
  LinkSender sender{cfg};
  for (int i = 0; i < 4; ++i) {
    const DataPacket p = sender.packet(test_frame(0));
    sender.on_ack(p.seq);
  }
  EXPECT_THROW(sender.packet(test_frame(0)), CheckFailure);
}

// ---------------------------------------------------------------- report --
// ------------------------------------------- detection flag semantics --
// `detected` counts every Reject ever issued — including by a node that
// crashed afterwards — because it is the fault-free-model answer the
// paper's one-sided-error analysis speaks about. `detected_by_survivors`
// is the operator's view: Rejects collectable from nodes alive at the end.
TEST(FaultReport, RejectFromLaterCrashedNodeCountsAsDetectedOnly) {
  class RejectThenLinger final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 0) api.reject();
      if (api.round() >= 2) api.halt();
    }
  };

  NetworkConfig cfg;
  cfg.max_rounds = 8;
  cfg.faults.crashes.push_back({0, 1});  // node 0 rejects, then dies
  const auto outcome =
      run_congest(build::path(2), cfg, [](std::uint32_t) {
        return std::make_unique<RejectThenLinger>();
      });

  EXPECT_TRUE(outcome.detected);
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
  EXPECT_FALSE(outcome.completed);  // a crashed node never counts as halted
  ASSERT_EQ(outcome.faults.crashed_nodes.size(), 1u);
  EXPECT_EQ(outcome.faults.crashed_nodes[0], 0u);
}

TEST(FaultReport, CrashAtRoundZeroPreemptsTheFirstRound) {
  // A round-0 crash wins against the node's own round-0 program: the
  // would-be rejector never executes, so nothing is detected anywhere.
  class RejectAtZero final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 0) api.reject();
      if (api.round() >= 1) api.halt();
    }
  };
  NetworkConfig cfg;
  cfg.max_rounds = 4;
  cfg.faults.crashes.push_back({0, 0});
  const auto outcome =
      run_congest(build::path(2), cfg, [](std::uint32_t) {
        return std::make_unique<RejectAtZero>();
      });
  EXPECT_FALSE(outcome.detected);
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
  ASSERT_EQ(outcome.faults.crashed_nodes.size(), 1u);
  EXPECT_EQ(outcome.faults.crashed_nodes[0], 0u);
}

TEST(FaultReport, AllNodesCrashedAtRoundZeroLeaveAnEmptyRun) {
  class RejectAtZero final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      api.reject();
      api.halt();
    }
  };
  NetworkConfig cfg;
  cfg.max_rounds = 4;
  for (std::uint32_t v = 0; v < 3; ++v) cfg.faults.crashes.push_back({v, 0});
  const auto outcome =
      run_congest(build::cycle(3), cfg, [](std::uint32_t) {
        return std::make_unique<RejectAtZero>();
      });
  EXPECT_FALSE(outcome.detected);
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.faults.crashed_nodes.size(), 3u);
  EXPECT_EQ(outcome.metrics.messages, 0u);
}

TEST(FaultReport, SoleRejectorSurvivesItsCrashedNeighborhood) {
  // Every neighbor of the one rejecting node dies before the reject is
  // issued. The verdict is still collectable — the rejector itself is the
  // survivor — so detected and detected_by_survivors agree.
  class CenterRejects final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 1) api.reject();
      if (api.round() >= 2) api.halt();
    }
  };
  const Graph g = build::star(4);  // center 0 + 4 leaves
  NetworkConfig cfg;
  cfg.max_rounds = 6;
  for (std::uint32_t leaf = 1; leaf <= 4; ++leaf)
    cfg.faults.crashes.push_back({leaf, 0});
  const auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<CenterRejects>();
  });
  EXPECT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.faults.detected_by_survivors);
  EXPECT_FALSE(outcome.completed);  // the crashed leaves never halt
  EXPECT_EQ(outcome.faults.crashed_nodes.size(), 4u);
}

TEST(FaultReport, RecoveryRestoresTheRejectingSurvivor) {
  // Reject-then-crash, async engine. Without recovery the reject is a
  // detected-only artifact (its issuer is dead at the end); with recovery
  // the inbox-log replay reproduces the Reject on the restored replica, so
  // the survivor view regains the verdict and the run completes.
  class RejectThenLinger final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 0) api.reject();
      if (api.round() >= 2) api.halt();
    }
  };
  const Graph g = build::path(2);
  AsyncConfig cfg;
  cfg.max_pulses = 8;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.crashes.push_back({0, 1});
  const auto factory = [](std::uint32_t) {
    return std::make_unique<RejectThenLinger>();
  };

  const auto without = run_async(g, cfg, factory);
  EXPECT_TRUE(without.detected);
  EXPECT_FALSE(without.faults.detected_by_survivors);
  EXPECT_TRUE(without.faults.recovered_nodes.empty());

  cfg.recovery.enabled = true;
  cfg.recovery.rejoin_delay = 1;
  const auto with = run_async(g, cfg, factory);
  EXPECT_TRUE(with.detected);
  EXPECT_TRUE(with.faults.detected_by_survivors);
  EXPECT_TRUE(with.completed);
  ASSERT_EQ(with.faults.recovered_nodes.size(), 1u);
  EXPECT_EQ(with.faults.recovered_nodes[0], 0u);
  EXPECT_GE(with.faults.replayed_pulses, 1u);
}

TEST(FaultReport, CleanAndSummary) {
  FaultReport report;
  EXPECT_TRUE(report.clean());
  report.frames_dropped = 3;
  report.crashed_nodes = {2};
  report.violations.push_back({ViolationKind::Bandwidth, 1, 4, "too big"});
  EXPECT_FALSE(report.clean());
  const std::string text = summarize(report);
  EXPECT_NE(text.find("dropped"), std::string::npos);
  EXPECT_NE(text.find("bandwidth"), std::string::npos);
}

TEST(FaultReport, MergeSumsCountersConcatenatesListsAndOrsSurvivors) {
  FaultReport total;
  total.frames_dropped = 1;
  total.retransmissions = 2;
  total.crashed_nodes = {4};
  total.stalled_nodes = {1};
  total.violations.push_back({ViolationKind::Bandwidth, 1, 3, "first"});
  total.detected_by_survivors = true;

  FaultReport later;
  later.frames_dropped = 10;
  later.frames_corrupted = 3;
  later.checksum_rejects = 4;
  later.duplicate_packets = 5;
  later.duplicate_acks = 6;
  later.transport_failures = 7;
  later.replayed_pulses = 8;
  later.watchdog_stalls = 1;
  later.crashed_nodes = {0, 2};
  later.recovered_nodes = {2};
  later.stalled_nodes = {3};
  later.violations.push_back({ViolationKind::ProgramFault, 0, 1, "second"});

  total.merge(later);
  EXPECT_EQ(total.frames_dropped, 11u);
  EXPECT_EQ(total.frames_corrupted, 3u);
  EXPECT_EQ(total.retransmissions, 2u);
  EXPECT_EQ(total.checksum_rejects, 4u);
  EXPECT_EQ(total.duplicate_packets, 5u);
  EXPECT_EQ(total.duplicate_acks, 6u);
  EXPECT_EQ(total.transport_failures, 7u);
  EXPECT_EQ(total.replayed_pulses, 8u);
  EXPECT_EQ(total.watchdog_stalls, 1u);
  EXPECT_EQ(total.crashed_nodes, (std::vector<std::uint32_t>{4, 0, 2}));
  EXPECT_EQ(total.recovered_nodes, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(total.stalled_nodes, (std::vector<std::uint32_t>{1, 3}));
  ASSERT_EQ(total.violations.size(), 2u);
  EXPECT_EQ(total.violations[0].detail, "first");
  EXPECT_EQ(total.violations[1].detail, "second");
  EXPECT_TRUE(total.detected_by_survivors);

  // detected_by_survivors is an OR: a later surviving reject sets it.
  FaultReport quiet;
  FaultReport rejecting;
  rejecting.detected_by_survivors = true;
  quiet.merge(rejecting);
  EXPECT_TRUE(quiet.detected_by_survivors);
  quiet.merge(FaultReport{});
  EXPECT_TRUE(quiet.detected_by_survivors);
}

}  // namespace
}  // namespace csd::congest
