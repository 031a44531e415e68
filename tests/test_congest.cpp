// Tests for the CONGEST simulator: round semantics, bandwidth enforcement,
// metrics accounting, transcripts, identifiers, the NodeApi::sleep_until
// activity hint, and the congested-clique helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/clique.hpp"
#include "congest/network.hpp"
#include "graph/builders.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"
#include "support/wire.hpp"

namespace csd::congest {
namespace {

/// Broadcasts its id once, collects neighbor ids, halts after `rounds`.
class GossipOnce final : public NodeProgram {
 public:
  explicit GossipOnce(std::uint64_t rounds) : rounds_(rounds) {}
  void on_round(NodeApi& api) override {
    const unsigned bits = wire::bits_for(api.network_size());
    if (api.round() == 0) {
      wire::Writer w;
      w.u(api.id(), bits);
      api.broadcast(std::move(w).take());
    }
    if (api.round() == 1) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        ASSERT_TRUE(msg != nullptr);
        wire::Reader r(*msg);
        EXPECT_EQ(r.u(bits), api.neighbor_id(p));
      }
    }
    if (api.round() + 1 >= rounds_) api.halt();
  }

 private:
  std::uint64_t rounds_;
};

TEST(Network, MessagesDeliveredNextRoundToCorrectPort) {
  const Graph g = build::cycle(6);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<GossipOnce>(2); });
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.detected);
  EXPECT_EQ(outcome.metrics.rounds, 2u);
  EXPECT_EQ(outcome.metrics.messages, 12u);  // 6 nodes x 2 ports
}

TEST(Network, DefaultIdsAreIndices) {
  const Graph g = build::path(4);
  Network net(g, NetworkConfig{});
  ASSERT_EQ(net.ids().size(), 4u);
  EXPECT_EQ(net.ids()[3], 3u);
}

TEST(Network, CustomIdsVisibleToPrograms) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 0;
  cfg.namespace_size = 128;
  Network net(g, cfg, {42, 99});
  std::vector<NodeId> observed(2);

  class IdProbe final : public NodeProgram {
   public:
    IdProbe(NodeId* slot, NodeId* peer) : slot_(slot), peer_(peer) {}
    void on_round(NodeApi& api) override {
      *slot_ = api.id();
      *peer_ = api.neighbor_id(0);
      api.halt();
    }

   private:
    NodeId* slot_;
    NodeId* peer_;
  };

  std::vector<NodeId> peers(2);
  auto outcome = net.run([&](std::uint32_t v) {
    return std::make_unique<IdProbe>(&observed[v], &peers[v]);
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(observed[0], 42u);
  EXPECT_EQ(observed[1], 99u);
  EXPECT_EQ(peers[0], 99u);
  EXPECT_EQ(peers[1], 42u);
}

class OverBudgetSender final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    BitVec big(100, true);
    api.broadcast(big);  // exceeds any small bandwidth
    api.halt();
  }
};

TEST(Network, BandwidthEnforced) {
  // Over-budget sends no longer abort the run: the payload is truncated to
  // B bits and a Bandwidth violation is recorded on the outcome.
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<OverBudgetSender>();
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.max_message_bits, 8u);
  ASSERT_EQ(outcome.faults.violations.size(), 2u);  // one per sender
  for (const auto& violation : outcome.faults.violations)
    EXPECT_EQ(violation.kind, ViolationKind::Bandwidth);
}

TEST(Network, UnboundedBandwidthIsLocalModel) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 0;  // LOCAL
  auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<OverBudgetSender>();
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.max_message_bits, 100u);
}

class DoubleSender final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    BitVec first(1);
    first.set(0, true);
    api.send(0, first);
    api.send(0, BitVec(2));  // second send on same port: model violation
    api.halt();
  }
};

TEST(Network, OneMessagePerEdgePerRound) {
  // The second send on a port is ignored (first wins) and recorded as a
  // DuplicateSend violation instead of aborting the run.
  const Graph g = build::path(2);
  auto outcome = run_congest(g, NetworkConfig{}, [](std::uint32_t) {
    return std::make_unique<DoubleSender>();
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.max_message_bits, 1u);  // first send delivered
  ASSERT_EQ(outcome.faults.violations.size(), 2u);  // one per node
  for (const auto& violation : outcome.faults.violations)
    EXPECT_EQ(violation.kind, ViolationKind::DuplicateSend);
}

class NeverHalts final : public NodeProgram {
 public:
  void on_round(NodeApi&) override {}
};

TEST(Network, RoundCapStopsRunaways) {
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.max_rounds = 10;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<NeverHalts>(); });
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.metrics.rounds, 10u);
}

class RejectIfIndexZero final : public NodeProgram {
 public:
  explicit RejectIfIndexZero(bool is_zero) : is_zero_(is_zero) {}
  void on_round(NodeApi& api) override {
    if (is_zero_) api.reject();
    api.halt();
  }

 private:
  bool is_zero_;
};

TEST(Network, VerdictAggregation) {
  const Graph g = build::path(3);
  auto outcome = run_congest(g, NetworkConfig{}, [](std::uint32_t v) {
    return std::make_unique<RejectIfIndexZero>(v == 0);
  });
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.verdicts[0], Verdict::Reject);
  EXPECT_EQ(outcome.verdicts[1], Verdict::Accept);
}

class PingOnce final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.round() == 0 && api.id() == 0) {
      BitVec three(3, true);
      api.send(0, three);
    }
    if (api.round() == 1) api.halt();
  }
};

TEST(Network, MetricsCountBits) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 4;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<PingOnce>(); });
  EXPECT_EQ(outcome.metrics.total_bits, 3u);
  EXPECT_EQ(outcome.metrics.messages, 1u);
  EXPECT_EQ(outcome.metrics.bits_sent_by_node[0], 3u);
  EXPECT_EQ(outcome.metrics.bits_sent_by_node[1], 0u);
}

TEST(Network, TranscriptRecordsMessages) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.record_transcript = true;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<PingOnce>(); });
  ASSERT_EQ(outcome.transcript.size(), 1u);
  EXPECT_EQ(outcome.transcript[0].src, 0u);
  EXPECT_EQ(outcome.transcript[0].dst, 1u);
  EXPECT_EQ(outcome.transcript[0].round, 0u);
  EXPECT_EQ(outcome.transcript[0].payload.size(), 3u);
}

TEST(Network, ObserverSeesMessages) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  std::uint64_t observed_bits = 0;
  cfg.on_message = [&](std::uint64_t, std::uint32_t src, std::uint32_t dst,
                       std::uint64_t bits) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(dst, 1u);
    observed_bits += bits;
  };
  run_congest(g, cfg,
              [](std::uint32_t) { return std::make_unique<PingOnce>(); });
  EXPECT_EQ(observed_bits, 3u);
}

TEST(Network, RngIsPerNodeAndSeedDeterministic) {
  const Graph g = build::path(2);

  class RngProbe final : public NodeProgram {
   public:
    explicit RngProbe(std::uint64_t* out) : out_(out) {}
    void on_round(NodeApi& api) override {
      *out_ = api.rng()();
      api.halt();
    }

   private:
    std::uint64_t* out_;
  };

  std::vector<std::uint64_t> draws_a(2), draws_b(2);
  NetworkConfig cfg;
  cfg.seed = 77;
  Network(g, cfg).run([&](std::uint32_t v) {
    return std::make_unique<RngProbe>(&draws_a[v]);
  });
  Network(g, cfg).run([&](std::uint32_t v) {
    return std::make_unique<RngProbe>(&draws_b[v]);
  });
  EXPECT_EQ(draws_a, draws_b);       // deterministic per seed
  EXPECT_NE(draws_a[0], draws_a[1]);  // nodes draw independently
}

TEST(RunAmplified, AggregatesDetection) {
  const Graph g = build::path(2);

  // Rejects only when the node rng's first draw is even: a ~1/2 chance per
  // repetition, so 20 repetitions detect with overwhelming probability.
  class CoinReject final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.rng()() % 2 == 0) api.reject();
      api.halt();
    }
  };

  NetworkConfig cfg;
  cfg.seed = 5;
  const auto factory = [](std::uint32_t) {
    return std::make_unique<CoinReject>();
  };

  // Default driver: stop after the first rejecting repetition (one-sided
  // error makes further repetitions redundant) and account honestly.
  auto outcome = run_amplified(g, cfg, factory, 20);
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.metrics.repetitions_executed +
                outcome.metrics.repetitions_skipped,
            20u);
  // Each executed repetition is exactly one round; costs cover only what ran.
  EXPECT_EQ(outcome.metrics.rounds, outcome.metrics.repetitions_executed);

  // Exhaustive mode: every repetition runs and the costs sum over all 20.
  AmplifyOptions all;
  all.early_exit = false;
  auto full = run_amplified(g, cfg, factory, 20, all);
  EXPECT_TRUE(full.detected);
  EXPECT_EQ(full.metrics.repetitions_executed, 20u);
  EXPECT_EQ(full.metrics.repetitions_skipped, 0u);
  EXPECT_EQ(full.metrics.rounds, 20u);  // summed over repetitions
}

// -------------------------------------------------- namespace & broadcast --
TEST(Network, NamespaceDefaultsToSizeAndIsVisible) {
  const Graph g = build::path(3);

  class NamespaceProbe final : public NodeProgram {
   public:
    explicit NamespaceProbe(std::uint64_t* out) : out_(out) {}
    void on_round(NodeApi& api) override {
      *out_ = api.namespace_size();
      api.halt();
    }

   private:
    std::uint64_t* out_;
  };

  std::uint64_t seen = 0;
  run_congest(g, NetworkConfig{}, [&](std::uint32_t) {
    return std::make_unique<NamespaceProbe>(&seen);
  });
  EXPECT_EQ(seen, 3u);

  NetworkConfig wide;
  wide.namespace_size = 1000;
  run_congest(g, wide, [&](std::uint32_t) {
    return std::make_unique<NamespaceProbe>(&seen);
  });
  EXPECT_EQ(seen, 1000u);
}

TEST(Network, RejectsIdsOutsideNamespace) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.namespace_size = 10;
  Network net(g, cfg, {3, 11});
  EXPECT_THROW(net.run([](std::uint32_t) {
    return std::make_unique<NeverHalts>();
  }),
               CheckFailure);
}

class PerPortSender final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      BitVec payload;
      payload.append_bits(p, 4);  // different content per port
      api.send(p, payload);
    }
    api.halt();
  }
};

TEST(Network, BroadcastOnlyRejectsPerPortMessages) {
  const Graph g = build::path(3);  // middle node has two ports
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<PerPortSender>();
  });
  EXPECT_TRUE(outcome.completed);
  // Only the middle node has two ports with differing payloads.
  ASSERT_EQ(outcome.faults.violations.size(), 1u);
  EXPECT_EQ(outcome.faults.violations[0].kind,
            ViolationKind::BroadcastMismatch);
  EXPECT_EQ(outcome.faults.violations[0].node, 1u);
}

TEST(Network, ScheduledCrashProducesFaultReport) {
  // A crashed node falls silent: it stops executing rounds and its queued
  // messages are discarded, but the run continues for everyone else.
  class HaltAtThree final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.round() >= 3) api.halt();
    }
  };
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.max_rounds = 8;
  cfg.faults.crashes = {{1, 1}};
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<HaltAtThree>(); });
  EXPECT_FALSE(outcome.completed);  // the crashed node never halts
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(outcome.faults.stalled_nodes.empty());  // ends halt anyway
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
}

TEST(Network, ProgramFaultCrashesNodeNotProcess) {
  // Under a fault plan a throwing program becomes a crashed node with a
  // ProgramFault violation; without one, the engine stays fail-fast.
  class ThrowsAtTwo final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      CSD_CHECK_MSG(api.round() != 2 || api.id() != 0, "decode exploded");
      if (api.round() >= 4) api.halt();
    }
  };
  const Graph g = build::path(2);
  const auto factory = [](std::uint32_t) {
    return std::make_unique<ThrowsAtTwo>();
  };

  NetworkConfig strict;
  strict.max_rounds = 8;
  EXPECT_THROW(run_congest(g, strict, factory), CheckFailure);

  NetworkConfig graceful = strict;
  graceful.faults.crashes = {{1, 1000}};  // any plan enables degradation
  auto outcome = run_congest(g, graceful, factory);
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(outcome.faults.violations.size(), 1u);
  EXPECT_EQ(outcome.faults.violations[0].kind, ViolationKind::ProgramFault);
  EXPECT_EQ(outcome.faults.violations[0].node, 0u);
  EXPECT_EQ(outcome.faults.violations[0].round, 2u);
}

TEST(Network, BroadcastOnlyAllowsUniformMessages) {
  const Graph g = build::cycle(5);
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  cfg.bandwidth = 8;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<GossipOnce>(2); });
  EXPECT_TRUE(outcome.completed);
}

// ------------------------------------------------------- activity hint --
// The classic engine honors NodeApi::sleep_until and skips idle rounds; the
// sharded engine ignores the hint and runs every node every round. Each test
// runs both (W = 1 as the reference) and requires bit-identical outcomes,
// and checks from the program's own log that the classic engine really
// skipped — otherwise a silent fallback to round-by-round execution would
// pass every equivalence check.

constexpr std::uint64_t kNever = 1'000'000'000;

/// Logs every round it runs in, then sleeps: node 0 until `ping_at`, where
/// it sends one bit to each neighbor (mail wakes them early; a woken node
/// rejects), everyone else until `halt_at`, where all halt. With
/// `pinger_naps` off node 0 never sleeps.
class Napper final : public NodeProgram {
 public:
  Napper(std::vector<std::uint64_t>* runs, std::uint64_t ping_at,
         std::uint64_t halt_at, bool pinger_naps)
      : runs_(runs),
        ping_at_(ping_at),
        halt_at_(halt_at),
        pinger_naps_(pinger_naps) {}
  void on_round(NodeApi& api) override {
    runs_->push_back(api.round());
    api.phase(api.round() < halt_at_ ? "nap" : "halt");
    for (std::uint32_t p = 0; p < api.degree(); ++p)
      if (api.inbox(p) != nullptr) api.reject();
    if (api.round() >= halt_at_) {
      api.halt();
      return;
    }
    if (api.id() == 0 && api.round() == ping_at_) {
      BitVec ping;
      ping.push_back(true);
      api.broadcast(ping);
    }
    if (api.id() == 0 && !pinger_naps_) return;
    const bool pinger = api.id() == 0 && api.round() < ping_at_;
    api.sleep_until(pinger ? std::min(ping_at_, halt_at_) : halt_at_);
  }

 private:
  std::vector<std::uint64_t>* runs_;
  std::uint64_t ping_at_;
  std::uint64_t halt_at_;
  bool pinger_naps_;
};

/// One engine's run of Napper: the outcome and the rounds each node ran.
struct NapRun {
  RunOutcome outcome;
  std::vector<std::vector<std::uint64_t>> runs;
};

NapRun run_napper(const Graph& g, NetworkConfig cfg, std::uint32_t workers,
                  std::uint64_t ping_at, std::uint64_t halt_at,
                  const Snapshot* resume_from = nullptr,
                  bool pinger_naps = true) {
  NapRun nap;
  nap.runs.resize(g.num_vertices());
  auto* runs = &nap.runs;
  cfg.shard.workers = workers;
  const Network net(g, cfg);
  const ProgramFactory factory = [=](std::uint32_t v) {
    return std::make_unique<Napper>(&(*runs)[v], ping_at, halt_at,
                                    pinger_naps);
  };
  nap.outcome = resume_from != nullptr ? net.resume(factory, *resume_from)
                                       : net.run(factory);
  return nap;
}

std::string trace_jsonl(const RunOutcome& outcome) {
  std::ostringstream os;
  outcome.trace.write_jsonl(os);
  return os.str();
}

/// Every model-exact output of the classic run against the reference.
void expect_same_outcome(const RunOutcome& classic,
                         const RunOutcome& reference) {
  EXPECT_EQ(classic.completed, reference.completed);
  EXPECT_EQ(classic.detected, reference.detected);
  EXPECT_EQ(classic.verdicts, reference.verdicts);
  EXPECT_EQ(classic.metrics.rounds, reference.metrics.rounds);
  EXPECT_EQ(classic.metrics.messages, reference.metrics.messages);
  EXPECT_EQ(classic.metrics.total_bits, reference.metrics.total_bits);
  EXPECT_EQ(classic.metrics.bits_sent_by_node,
            reference.metrics.bits_sent_by_node);
  EXPECT_EQ(classic.metrics.trace_bytes, reference.metrics.trace_bytes);
  EXPECT_TRUE(classic.faults == reference.faults);
  EXPECT_EQ(trace_jsonl(classic), trace_jsonl(reference));
}

NetworkConfig traced_config() {
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.trace.enabled = true;
  cfg.trace.per_node = true;
  return cfg;
}

using Runs = std::vector<std::uint64_t>;

TEST(ActivityHint, MailWakesASleeperBeforeItsTargetRound) {
  const Graph g = build::path(5);
  const NapRun classic = run_napper(g, traced_config(), 0, 5, 40);
  const NapRun reference = run_napper(g, traced_config(), 1, 5, 40);
  expect_same_outcome(classic.outcome, reference.outcome);
  EXPECT_EQ(classic.outcome.metrics.rounds, 41u);
  EXPECT_EQ(classic.outcome.verdicts[1], Verdict::Reject);
  EXPECT_EQ(classic.runs[0], (Runs{0, 5, 40}));
  EXPECT_EQ(classic.runs[1], (Runs{0, 6, 40}));  // the ping lands in round 6
  EXPECT_EQ(reference.runs[1].size(), 41u);       // the reference never sleeps
}

TEST(ActivityHint, MailFromAnAwakeSenderWakesASleeper) {
  // Node 0 never sleeps, so in the ping round the only sleepers are the
  // receivers, which did not run that round.
  const Graph g = build::path(5);
  const NapRun classic =
      run_napper(g, traced_config(), 0, 5, 40, nullptr, false);
  const NapRun reference =
      run_napper(g, traced_config(), 1, 5, 40, nullptr, false);
  expect_same_outcome(classic.outcome, reference.outcome);
  EXPECT_EQ(classic.outcome.verdicts[1], Verdict::Reject);
  EXPECT_EQ(classic.runs[0].size(), 41u);
  EXPECT_EQ(classic.runs[1], (Runs{0, 6, 40}));
}

TEST(ActivityHint, ASleeperWakesAtItsTargetRound) {
  const Graph g = build::cycle(6);
  const NapRun classic = run_napper(g, traced_config(), 0, kNever, 30);
  const NapRun reference = run_napper(g, traced_config(), 1, kNever, 30);
  expect_same_outcome(classic.outcome, reference.outcome);
  EXPECT_TRUE(classic.outcome.completed);
  EXPECT_EQ(classic.outcome.metrics.rounds, 31u);
  for (const Runs& runs : classic.runs) EXPECT_EQ(runs, (Runs{0, 30}));
}

TEST(ActivityHint, AllAsleepStretchRunsIntoTheRoundCap) {
  const Graph g = build::path(4);
  NetworkConfig cfg = traced_config();
  cfg.max_rounds = 100;
  const NapRun classic = run_napper(g, cfg, 0, kNever, kNever);
  const NapRun reference = run_napper(g, cfg, 1, kNever, kNever);
  expect_same_outcome(classic.outcome, reference.outcome);
  EXPECT_EQ(classic.outcome.metrics.rounds, 100u);
  EXPECT_EQ(classic.outcome.faults.stalled_nodes,
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  for (const Runs& runs : classic.runs) EXPECT_EQ(runs, (Runs{0}));
}

TEST(ActivityHint, StallWatchdogFiresInTheSameRound) {
  const Graph g = build::path(4);
  NetworkConfig cfg = traced_config();
  cfg.stall_window = 7;
  const NapRun classic = run_napper(g, cfg, 0, 3, kNever);
  const NapRun reference = run_napper(g, cfg, 1, 3, kNever);
  expect_same_outcome(classic.outcome, reference.outcome);
  // The ping lands in round 4, the last progress; the window ends at 11.
  EXPECT_EQ(classic.outcome.faults.watchdog_stalls, 1u);
  EXPECT_EQ(classic.outcome.metrics.rounds, 11u);
  EXPECT_EQ(classic.runs[1], (Runs{0, 4}));
}

TEST(ActivityHint, CheckpointInsideASkippedStretchAndResume) {
  const Graph g = build::path(5);
  const NapRun uninterrupted = run_napper(g, traced_config(), 0, 5, 40);
  for (const std::uint64_t at : {6u, 20u}) {
    NetworkConfig cfg = traced_config();
    cfg.checkpoint_at_round = at;
    const NapRun classic = run_napper(g, cfg, 0, 5, 40);
    const NapRun reference = run_napper(g, cfg, 1, 5, 40);
    expect_same_outcome(classic.outcome, reference.outcome);
    ASSERT_NE(classic.outcome.checkpoint, nullptr);
    ASSERT_NE(reference.outcome.checkpoint, nullptr);
    EXPECT_EQ(to_json(*classic.outcome.checkpoint).dump(),
              to_json(*reference.outcome.checkpoint).dump())
        << "checkpoint at " << at;
    if (at == 20) {
      // Round 20 lies in the stretch every node sleeps through.
      EXPECT_EQ(classic.runs[2], (Runs{0, 40}));
    }

    // Resume both engines. From round 6 the restored inbox holds the ping,
    // which must reach node 1 although it sleeps until round 40.
    const NapRun resumed = run_napper(g, traced_config(), 0, 5, 40,
                                      classic.outcome.checkpoint.get());
    const NapRun resumed_ref = run_napper(g, traced_config(), 1, 5, 40,
                                          classic.outcome.checkpoint.get());
    expect_same_outcome(resumed.outcome, resumed_ref.outcome);
    EXPECT_EQ(resumed.outcome.verdicts, uninterrupted.outcome.verdicts);
    EXPECT_EQ(resumed.outcome.metrics.rounds,
              uninterrupted.outcome.metrics.rounds);
    EXPECT_EQ(resumed.outcome.verdicts[1], Verdict::Reject);
    EXPECT_EQ(resumed.runs[2].back(), 40u);
    EXPECT_LT(resumed.runs[2].size(), resumed_ref.runs[2].size());
  }
}

TEST(ActivityHint, ASleeperCrashesInItsCrashRound) {
  // Node 2 sleeps from round 0 to 40 but is scheduled to crash in round
  // 17. The crash is the last progress, so the stall watchdog (window 15)
  // cuts the run at 33; a crash missed or delayed would move that round.
  const Graph g = build::path(5);
  NetworkConfig cfg = traced_config();
  cfg.faults.crashes = {{2, 17}};
  cfg.stall_window = 15;
  const NapRun classic = run_napper(g, cfg, 0, 5, 40);
  const NapRun reference = run_napper(g, cfg, 1, 5, 40);
  expect_same_outcome(classic.outcome, reference.outcome);
  EXPECT_EQ(classic.outcome.faults.crashed_nodes,
            (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(classic.outcome.faults.watchdog_stalls, 1u);
  EXPECT_EQ(classic.outcome.metrics.rounds, 33u);
  EXPECT_EQ(classic.runs[2], (Runs{0}));
}

TEST(ActivityHint, TelemetryCountsSkippedRounds) {
  const Graph g = build::path(5);
  obs::Telemetry telemetry;
  NetworkConfig cfg = traced_config();
  cfg.telemetry = &telemetry;
  const NapRun classic = run_napper(g, cfg, 0, 5, 40);
  const RunOutcome& out = classic.outcome;
  EXPECT_EQ(telemetry.counter("sync_rounds").value(), out.metrics.rounds);
  EXPECT_EQ(telemetry.counter("sync_messages").value(), out.metrics.messages);
  // sync_round_bits observes every round once, a quiet one in bucket 0.
  const obs::Json metrics = telemetry.metrics_json();
  std::uint64_t observed = 0;
  std::uint64_t quiet = 0;
  for (const obs::Json& cell :
       metrics.at("histograms").at("sync_round_bits").items()) {
    observed += cell.items()[1].as_uint();
    if (cell.items()[0].as_uint() == 0) quiet = cell.items()[1].as_uint();
  }
  std::uint64_t quiet_rows = 0;
  for (const auto& row : out.trace.rounds()) quiet_rows += row.bits == 0;
  EXPECT_EQ(observed, out.metrics.rounds);
  EXPECT_EQ(quiet, quiet_rows);
  EXPECT_EQ(quiet, out.metrics.rounds - 1);  // only round 5 sends
}

// ------------------------------------------------------ congested clique --
TEST(Clique, PortPeerInverse) {
  for (Vertex v = 0; v < 8; ++v)
    for (std::uint32_t p = 0; p < 7; ++p) {
      const Vertex w = clique_peer(v, p);
      EXPECT_NE(w, v);
      EXPECT_EQ(clique_port(v, w), p);
    }
}

TEST(Clique, PortsMatchCompleteTopology) {
  const Graph k5 = build::complete(5);
  for (Vertex v = 0; v < 5; ++v) {
    const auto nbrs = k5.neighbors(v);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p)
      EXPECT_EQ(nbrs[p], clique_peer(v, p));
  }
}

TEST(Clique, RunsProgramsAllToAll) {
  class CountNeighbors final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      EXPECT_EQ(api.degree(), api.network_size() - 1);
      api.halt();
    }
  };
  auto outcome = run_congested_clique(6, NetworkConfig{}, [](std::uint32_t) {
    return std::make_unique<CountNeighbors>();
  });
  EXPECT_TRUE(outcome.completed);
}

}  // namespace
}  // namespace csd::congest
