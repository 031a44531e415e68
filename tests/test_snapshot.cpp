// Checkpoint/restore tests: the csd-ckpt-v1 format, the async engine's
// bit-identical resume contract and the zero-observer property of its
// capture, node recovery in the async engine, and the stall watchdogs.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "congest/snapshot.hpp"
#include "congest/supervisor.hpp"
#include "detect/pipelined_cycle.hpp"
#include "graph/builders.hpp"
#include "obs/json.hpp"
#include "support/check.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

void expect_reports_equal(const FaultReport& a, const FaultReport& b) {
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.checksum_rejects, b.checksum_rejects);
  EXPECT_EQ(a.duplicate_packets, b.duplicate_packets);
  EXPECT_EQ(a.duplicate_acks, b.duplicate_acks);
  EXPECT_EQ(a.transport_failures, b.transport_failures);
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes);
  EXPECT_EQ(a.recovered_nodes, b.recovered_nodes);
  EXPECT_EQ(a.replayed_pulses, b.replayed_pulses);
  EXPECT_EQ(a.watchdog_stalls, b.watchdog_stalls);
  EXPECT_EQ(a.stalled_nodes, b.stalled_nodes);
  EXPECT_EQ(a.detected_by_survivors, b.detected_by_survivors);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].kind, b.violations[i].kind);
    EXPECT_EQ(a.violations[i].node, b.violations[i].node);
    EXPECT_EQ(a.violations[i].round, b.violations[i].round);
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
  }
}

/// The resumed trace must match the uninterrupted one for every round at or
/// past the checkpoint round.
void expect_trace_suffix_equal(const obs::RunTrace& full,
                               const obs::RunTrace& resumed,
                               std::uint64_t from_round) {
  ASSERT_TRUE(full.enabled());
  ASSERT_TRUE(resumed.enabled());
  const auto& a = full.rounds();
  const auto& b = resumed.rounds();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = from_round; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "round " << i;
}

// ---------------------------------------------------------------- sync --

TEST(SyncWatchdog, CutsSilentRunsAfterTheWindow) {
  class SilentForever final : public NodeProgram {
   public:
    void on_round(NodeApi&) override {}  // never sends, never halts
  };
  const Graph g = build::path(4);
  NetworkConfig cfg;
  cfg.max_rounds = 1000;
  cfg.stall_window = 5;
  const auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<SilentForever>();
  });
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.faults.watchdog_stalls, 1u);
  EXPECT_EQ(outcome.metrics.rounds, 5u);  // window rounds, then the cut
}

// --------------------------------------------------------------- async --

AsyncConfig faulty_async_config(TransportMode mode) {
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 120;
  cfg.seed = 23;
  cfg.max_delay = 5;
  cfg.transport = mode;
  cfg.faults.drop = mode == TransportMode::Reliable ? 0.2 : 0.05;
  cfg.faults.corrupt = 0.1;
  cfg.faults.crashes = {{1, 6}};
  cfg.trace.enabled = true;
  return cfg;
}

void expect_async_equal(const AsyncRunOutcome& a, const AsyncRunOutcome& b) {
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.pulses, b.pulses);
  EXPECT_EQ(a.virtual_time, b.virtual_time);
  EXPECT_EQ(a.payload_bits, b.payload_bits);
  EXPECT_EQ(a.overhead_bits, b.overhead_bits);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.transport_bits, b.transport_bits);
  EXPECT_EQ(a.acks, b.acks);
  expect_reports_equal(a.faults, b.faults);
}

TEST(AsyncCheckpoint, CaptureIsAZeroObserver) {
  Rng rng(11);
  const Graph g = build::gnp(10, 0.3, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  const AsyncConfig plain = faulty_async_config(TransportMode::Reliable);
  AsyncConfig observed = plain;
  observed.checkpoint_at_pulse = 3;
  const auto a = run_async(g, plain, factory);
  const auto b = run_async(g, observed, factory);
  ASSERT_NE(b.checkpoint, nullptr);
  EXPECT_EQ(b.checkpoint->kind, Snapshot::Kind::Async);
  expect_async_equal(a, b);
  expect_trace_suffix_equal(a.trace, b.trace, 0);
}

TEST(AsyncCheckpoint, ResumeIsBitIdenticalRawAndReliable) {
  Rng rng(12);
  const Graph g = build::gnp(11, 0.3, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  for (const TransportMode mode :
       {TransportMode::Raw, TransportMode::Reliable}) {
    AsyncConfig cfg = faulty_async_config(mode);
    cfg.checkpoint_at_pulse = 2;
    const auto full = run_async(g, cfg, factory);
    ASSERT_NE(full.checkpoint, nullptr);

    // JSON round trip on the way, so the serialized form is what resumes.
    const Snapshot reparsed =
        snapshot_from_json(obs::Json::parse(to_json(*full.checkpoint).dump()));
    const auto resumed = resume_async(g, cfg, factory, reparsed);
    expect_async_equal(full, resumed);
    expect_trace_suffix_equal(full.trace, resumed.trace,
                              full.checkpoint->async_state.pulses);
  }
}

TEST(AsyncCheckpoint, ResumeRejectsForeignSnapshots) {
  const Graph g = build::cycle(8);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 60;
  cfg.seed = 31;
  cfg.checkpoint_at_pulse = 2;
  const auto full = run_async(g, cfg, factory);
  ASSERT_NE(full.checkpoint, nullptr);
  EXPECT_THROW(resume_async(build::path(8), cfg, factory, *full.checkpoint),
               CheckFailure);
  AsyncConfig other = cfg;
  other.max_delay = cfg.max_delay + 1;
  EXPECT_THROW(resume_async(g, other, factory, *full.checkpoint),
               CheckFailure);
  AsyncConfig reseeded = cfg;
  reseeded.seed = cfg.seed + 1;
  EXPECT_THROW(resume_async(g, reseeded, factory, *full.checkpoint),
               CheckFailure);
}

TEST(AsyncCheckpoint, ResumeRejectsDamagedEventLists) {
  // An event indexes the engine's per-node and per-port tables, and the
  // event queue pops a restored list correctly only if nothing precedes the
  // snapshot's clock and (t, q) ascends; under the reliable transport the
  // events must also agree with the ARQ endpoints they name. Each damage
  // exits with a check naming the key, before any replay, except a saved
  // halted flag or verdict, which the replay checks.
  Rng rng(12);
  const Graph g = build::gnp(11, 0.3, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  for (const TransportMode mode :
       {TransportMode::Raw, TransportMode::Reliable}) {
    AsyncConfig cfg = faulty_async_config(mode);
    cfg.checkpoint_at_pulse = 2;
    const auto full = run_async(g, cfg, factory);
    ASSERT_NE(full.checkpoint, nullptr);
    const AsyncSnapshot& clean = full.checkpoint->async_state;
    ASSERT_GE(clean.events.size(), 2u);
    ASSERT_GT(clean.virtual_time, 0u);

    const auto expect_rejected = [&](const std::string& key,
                                     const auto& damage) {
      Snapshot bad = *full.checkpoint;
      damage(bad.async_state);
      try {
        resume_async(g, cfg, factory, bad);
        ADD_FAILURE() << "resumed a snapshot with a damaged " << key;
      } catch (const CheckFailure& failure) {
        EXPECT_NE(std::string(failure.what()).find("key " + key),
                  std::string::npos)
            << failure.what();
      }
    };
    const auto index_of = [&](EventRecord::Kind kind) {
      std::size_t i = 0;
      while (i < clean.events.size() && clean.events[i].kind != kind) ++i;
      return i;
    };
    const std::size_t data = index_of(EventRecord::Kind::Data);
    ASSERT_LT(data, clean.events.size());

    expect_rejected("'s'", [](AsyncSnapshot& s) { s.events[0].src = 100000; });
    expect_rejected("'d'", [&](AsyncSnapshot& s) {
      s.events[data].dst = 100000;
    });
    expect_rejected("'d'", [&](AsyncSnapshot& s) {
      EventRecord& e = s.events[data];
      e.dst = e.dst == 0 ? 1 : 0;  // a node, but not the link's far end
    });
    expect_rejected("'dp'", [&](AsyncSnapshot& s) {
      s.events[data].dst_port += 1;
    });
    expect_rejected("'sp'", [&](AsyncSnapshot& s) {
      s.events[data].src_port = 4000;
    });
    expect_rejected("'t'", [](AsyncSnapshot& s) {
      s.events[0].time = s.virtual_time - 1;
    });
    expect_rejected("'t'", [](AsyncSnapshot& s) {
      s.events[1].time = s.events[0].time - 1;
    });
    expect_rejected("'q'", [](AsyncSnapshot& s) {
      s.events[1].time = s.events[0].time;
      s.events[1].seq = s.events[0].seq;
    });
    expect_rejected("'q'", [](AsyncSnapshot& s) {
      s.events.back().seq = s.next_event_seq;
    });
    if (mode == TransportMode::Reliable) {
      const std::size_t ack = index_of(EventRecord::Kind::Ack);
      ASSERT_LT(ack, clean.events.size());
      expect_rejected("'sp'", [&](AsyncSnapshot& s) {
        s.events[ack].src_port = 4000;
      });

      // The ARQ endpoints keep their lists sorted, and the event list must
      // agree with them: a live node's sender with two packets in flight.
      std::optional<std::pair<std::size_t, std::size_t>> busy;  // node, port
      for (std::size_t v = 0; v < clean.nodes.size() && !busy; ++v)
        for (std::size_t p = 0; p < clean.nodes[v].senders.size() && !busy;
             ++p)
          if (!clean.nodes[v].crashed &&
              clean.nodes[v].senders[p].pending.size() >= 2)
            busy = {{v, p}};
      ASSERT_TRUE(busy.has_value());
      const auto sender = [&](AsyncSnapshot& s) -> LinkSender& {
        return s.nodes[busy->first].senders[busy->second];
      };
      expect_rejected("'pending'", [&](AsyncSnapshot& s) {
        auto& pending = sender(s).pending;
        pending.insert(pending.begin(), pending.front());
      });
      expect_rejected("'pending'", [&](AsyncSnapshot& s) {
        std::reverse(sender(s).pending.begin(), sender(s).pending.end());
      });
      expect_rejected("'pending'", [&](AsyncSnapshot& s) {
        sender(s).pending.back().seq = sender(s).next_seq;
      });
      expect_rejected("'attempts'", [&](AsyncSnapshot& s) {
        sender(s).pending.front().attempts = 0;
      });
      expect_rejected("'attempts'", [&](AsyncSnapshot& s) {  // past the budget
        sender(s).pending.front().attempts = kMaxRetries + 2;
      });
      expect_rejected("'reorder'", [&](AsyncSnapshot& s) {
        LinkReceiver& receiver = s.nodes[busy->first].receivers[busy->second];
        receiver.reorder.insert(receiver.reorder.begin(),
                                {receiver.expected, Frame{}});
      });
      const std::size_t timer = index_of(EventRecord::Kind::Timer);
      ASSERT_LT(timer, clean.events.size());
      expect_rejected("'ls'", [&](AsyncSnapshot& s) {
        EventRecord& e = s.events[timer];
        e.link_seq = s.nodes[e.src].senders[e.src_port].next_seq;
      });
      expect_rejected("'pending'", [&](AsyncSnapshot& s) {
        // Delete the Timer event that retransmits the first pending packet.
        const std::uint64_t seq = sender(s).pending.front().seq;
        const auto named = std::find_if(
            s.events.begin(), s.events.end(), [&](const EventRecord& e) {
              return e.kind == EventRecord::Kind::Timer &&
                     e.src == busy->first && e.src_port == busy->second &&
                     e.link_seq == seq;
            });
        ASSERT_NE(named, s.events.end());
        s.events.erase(named);
      });
    } else {
      expect_rejected("'k'", [&](AsyncSnapshot& s) {
        s.events[data].kind = EventRecord::Kind::Timer;
      });
    }
    expect_rejected("'k'", [&](AsyncSnapshot& s) {  // recovery is off
      s.events[data].kind = EventRecord::Kind::Recover;
    });

    // The node records saved beside the engine state: a live node's halted
    // flag and verdict must agree with its replay, and the saved counts
    // with the records and the crashed flags.
    Vertex live = 0;
    while (clean.nodes[live].crashed) ++live;
    ASSERT_EQ(clean.halted[live], 0u);
    expect_rejected("'verdicts'", [&](AsyncSnapshot& s) {
      s.verdicts[live] = s.verdicts[live] == Verdict::Reject ? Verdict::Accept
                                                            : Verdict::Reject;
    });
    expect_rejected("'halted'", [&](AsyncSnapshot& s) {
      s.halted[live] = 1;  // the counts agree, the replay does not
      ++s.halted_count;
      ++s.stopped_count;
    });
    expect_rejected("'halted'", [](AsyncSnapshot& s) { s.halted.pop_back(); });
    expect_rejected("'halted_count'",
                    [](AsyncSnapshot& s) { ++s.halted_count; });
    expect_rejected("'stopped_count'",
                    [](AsyncSnapshot& s) { ++s.stopped_count; });
    expect_rejected("'stopped_count'", [&](AsyncSnapshot& s) {
      s.nodes[live].crashed = 1;  // a crash the saved count does not know
    });
    expect_rejected("'pending_recoveries'",
                    [](AsyncSnapshot& s) { ++s.pending_recoveries; });
  }
}

/// Node 0 rejects at pulse 0; every node sends one bit on every port each
/// pulse and halts at pulse 12.
class RejectThenChatter final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.round() == 0 && api.id() == 0) api.reject();
    if (api.round() == 12) {
      api.halt();
      return;
    }
    BitVec bit;
    bit.push_back(true);
    api.broadcast(bit);
  }
};

TEST(AsyncCheckpoint, ResumeKeepsTheVerdictOfANodeThatCrashedForGood) {
  // Resume replays only the nodes that are not crashed, so node 0's Reject,
  // issued before it crashed for good, lives only in the saved records.
  const Graph g = build::cycle(6);
  const ProgramFactory factory = [](std::uint32_t) {
    return std::make_unique<RejectThenChatter>();
  };
  AsyncConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_pulses = 40;
  cfg.seed = 3;
  cfg.faults.crashes = {{0, 2}};
  cfg.checkpoint_at_pulse = 5;
  const auto full = run_async(g, cfg, factory);
  ASSERT_NE(full.checkpoint, nullptr);
  const AsyncSnapshot& s = full.checkpoint->async_state;
  ASSERT_EQ(s.terminal, 0u);
  ASSERT_EQ(s.nodes[0].crashed, 1u);
  EXPECT_TRUE(full.detected);
  EXPECT_FALSE(full.faults.detected_by_survivors);
  const Snapshot reparsed =
      snapshot_from_json(obs::Json::parse(to_json(*full.checkpoint).dump()));
  const auto resumed = resume_async(g, cfg, factory, reparsed);
  EXPECT_TRUE(resumed.detected);
  expect_async_equal(full, resumed);
}

// ------------------------------------------------------------- recovery --

TEST(AsyncRecovery, ScheduledCrashRejoinsAndMatchesFaultFreeVerdicts) {
  Rng rng(14);
  const Graph g = build::gnp(10, 0.35, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 400;
  cfg.seed = 47;
  cfg.max_delay = 4;
  cfg.transport = TransportMode::Reliable;
  const auto clean = run_async(g, cfg, factory);
  ASSERT_TRUE(clean.completed);

  AsyncConfig crashed = cfg;
  crashed.faults.crashes = {{3, 4}};
  const auto dead = run_async(g, crashed, factory);
  EXPECT_FALSE(dead.completed);  // without recovery the crash is final

  AsyncConfig recovering = crashed;
  recovering.recovery.enabled = true;
  const auto healed = run_async(g, recovering, factory);
  EXPECT_TRUE(healed.completed);
  EXPECT_EQ(healed.verdicts, clean.verdicts);
  EXPECT_EQ(healed.detected, clean.detected);
  ASSERT_EQ(healed.faults.crashed_nodes, std::vector<std::uint32_t>{3});
  ASSERT_EQ(healed.faults.recovered_nodes, std::vector<std::uint32_t>{3});
  EXPECT_EQ(healed.faults.replayed_pulses, 4u);  // pulses 0..3 replayed
}

TEST(AsyncRecovery, CrashAtPulseZeroRecoversFromAnEmptyHistory) {
  const Graph g = build::cycle(6);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 300;
  cfg.seed = 51;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.crashes = {{0, 0}};
  cfg.recovery.enabled = true;
  const auto outcome = run_async(g, cfg, factory);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.faults.recovered_nodes, std::vector<std::uint32_t>{0});
  EXPECT_EQ(outcome.faults.replayed_pulses, 0u);  // nothing to replay
}

TEST(AsyncRecovery, RecoveryBudgetIsHonored) {
  const Graph g = build::path(3);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 200;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.crashes = {{1, 2}};
  cfg.recovery.enabled = true;
  cfg.recovery.max_recoveries = 0;  // policy on, budget zero -> stays dead
  const auto outcome = run_async(g, cfg, factory);
  EXPECT_FALSE(outcome.completed);
  EXPECT_TRUE(outcome.faults.recovered_nodes.empty());
}

TEST(AsyncRecovery, ResumeAcrossAPendingRecoveryIsBitIdentical) {
  // Checkpoint while the crashed node is down (its Recover event still in
  // the queue): the snapshot must carry the pending rejoin and the parked
  // transport conversations across the resume.
  Rng rng(15);
  const Graph g = build::gnp(9, 0.4, rng);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 400;
  cfg.seed = 61;
  cfg.max_delay = 4;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.crashes = {{2, 3}};
  cfg.recovery.enabled = true;
  cfg.recovery.rejoin_delay = 200;  // long outage: capture lands inside it
  cfg.checkpoint_at_pulse = 4;
  const auto full = run_async(g, cfg, factory);
  ASSERT_NE(full.checkpoint, nullptr);
  ASSERT_TRUE(full.completed);
  ASSERT_EQ(full.faults.recovered_nodes, std::vector<std::uint32_t>{2});

  const Snapshot reparsed =
      snapshot_from_json(obs::Json::parse(to_json(*full.checkpoint).dump()));
  const auto resumed = resume_async(g, cfg, factory, reparsed);
  expect_async_equal(full, resumed);
}

TEST(AsyncWatchdog, CutsAStarvedRunInsteadOfGrindingThroughRetries) {
  // A crashed hub starves the leaves; on reliable links their senders keep
  // retransmitting into the void with backed-off timers, so the event clock
  // races ahead of the last delivery. The watchdog should cut the run with
  // a structured report instead of grinding through the retry horizon.
  const Graph g = build::star(5);
  const auto factory = detect::pipelined_cycle_program(3);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 5000;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.crashes = {{0, 1}};  // the hub
  cfg.stall_window = 2;
  const auto outcome = run_async(g, cfg, factory);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.faults.watchdog_stalls, 1u);
}

// -------------------------------------------------------------- format --

/// The csd-ckpt-v1 bytes save_snapshot writes for `snapshot`, after checking
/// that the file parses and re-serializes to the very same bytes, both as
/// plain JSON and through load_snapshot.
std::string pinned_bytes(const Snapshot& snapshot, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  save_snapshot(path, snapshot);
  std::ifstream is(path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string bytes = buffer.str();
  EXPECT_EQ(obs::Json::parse(bytes).dump(1) + "\n", bytes);
  EXPECT_EQ(to_json(load_snapshot(path)).dump(1) + "\n", bytes);
  return bytes;
}

std::uint32_t crc32_bytes(const std::string& bytes) {
  Crc32 crc;
  for (const char ch : bytes) crc.bits(static_cast<unsigned char>(ch), 8);
  return crc.value();
}

// One snapshot per kind, pinned by size and CRC-32: a change to any key, key
// order, JSON kind or value rendering of csd-ckpt-v1 changes these constants.
TEST(SnapshotFormat, AsyncBytesArePinned) {
  // Reliable links under drops with a crashed node still down at capture:
  // the queue holds data, ack and timer events plus the pending Recover,
  // and the ARQ endpoints hold unacknowledged packets.
  Rng rng(15);
  const Graph g = build::gnp(9, 0.4, rng);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 400;
  cfg.seed = 61;
  cfg.max_delay = 4;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.drop = 0.1;
  cfg.faults.crashes = {{2, 3}};
  cfg.recovery.enabled = true;
  cfg.recovery.rejoin_delay = 200;
  cfg.checkpoint_at_pulse = 5;
  const auto full = run_async(g, cfg, detect::pipelined_cycle_program(3));
  ASSERT_NE(full.checkpoint, nullptr);
  const AsyncSnapshot& s = full.checkpoint->async_state;
  ASSERT_EQ(s.pending_recoveries, 1u);
  std::set<EventRecord::Kind> kinds;
  for (const auto& event : s.events) kinds.insert(event.kind);
  ASSERT_EQ(kinds.size(), 4u);  // data, ack, timer and recover events
  std::size_t pending = 0;
  for (const auto& node : s.nodes)
    for (const auto& sender : node.senders) pending += sender.pending.size();
  ASSERT_GT(pending, 0u);
  const std::string bytes =
      pinned_bytes(*full.checkpoint, "csd_pin_async.json");
  EXPECT_EQ(bytes.size(), 36501u);
  EXPECT_EQ(crc32_bytes(bytes), 267556635u);
}

/// The first slice (3 of 7 repetitions) of a lossy supervised batch.
SupervisedResult amplified_slice() {
  Rng rng(24);
  const Graph g = build::gnp(10, 0.3, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 80;
  cfg.seed = 17;
  cfg.faults.drop = 0.05;
  SupervisorConfig sup;
  sup.early_exit = false;
  sup.max_reps_per_call = 3;
  return Supervisor(g, cfg, sup).run(detect::pipelined_cycle_program(3), 7);
}

TEST(SnapshotFormat, AmplifiedBytesArePinned) {
  const SupervisedResult slice = amplified_slice();
  ASSERT_TRUE(slice.paused);
  ASSERT_NE(slice.checkpoint, nullptr);
  const std::string bytes =
      pinned_bytes(*slice.checkpoint, "csd_pin_amplified.json");
  EXPECT_EQ(bytes.size(), 902u);
  EXPECT_EQ(crc32_bytes(bytes), 1242074431u);
}

TEST(SnapshotFormat, ViolationRecordBytesArePinned) {
  // No pinned run records a violation; pin the violation record's layout
  // on the amplified slice.
  const SupervisedResult slice = amplified_slice();
  ASSERT_NE(slice.checkpoint, nullptr);
  Snapshot snapshot = *slice.checkpoint;
  ASSERT_TRUE(snapshot.amplified.faults.violations.empty());
  snapshot.amplified.faults.violations.push_back(
      {ViolationKind::DuplicateSend, 3, 2, "second send ignored"});
  const std::string bytes = pinned_bytes(snapshot, "csd_pin_violation.json");
  EXPECT_EQ(bytes.size(), 1004u);
  EXPECT_EQ(crc32_bytes(bytes), 1307301705u);
}

}  // namespace
}  // namespace csd::congest
