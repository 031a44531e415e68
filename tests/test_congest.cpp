// Tests for the CONGEST simulator: round semantics, bandwidth enforcement,
// metrics accounting, transcripts, identifiers, the engines' edge tables,
// the NodeApi::sleep_until activity hint, and the congested-clique helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/clique.hpp"
#include "congest/network.hpp"
#include "congest/supervisor.hpp"
#include "fuzz/fuzz_case.hpp"
#include "graph/builders.hpp"
#include "lowerbound/gkn.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
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
  const NetworkConfig cfg;
  struct Entry {
    std::uint64_t round;
    Vertex src, dst;
    BitVec payload;
  };
  std::vector<Entry> transcript;
  Network(g, cfg).run(
      [](std::uint32_t) { return std::make_unique<PingOnce>(); }, cfg.seed,
      [&](std::uint64_t round, Vertex src, Vertex dst, const BitVec& payload) {
        transcript.push_back({round, src, dst, payload});
      });
  ASSERT_EQ(transcript.size(), 1u);
  EXPECT_EQ(transcript[0].src, 0u);
  EXPECT_EQ(transcript[0].dst, 1u);
  EXPECT_EQ(transcript[0].round, 0u);
  EXPECT_EQ(transcript[0].payload.size(), 3u);
}

TEST(Network, ObserverSeesMessages) {
  const Graph g = build::path(2);
  const NetworkConfig cfg;
  std::uint64_t observed_bits = 0;
  Network(g, cfg).run(
      [](std::uint32_t) { return std::make_unique<PingOnce>(); }, cfg.seed,
      [&](std::uint64_t, Vertex src, Vertex dst, const BitVec& payload) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(dst, 1u);
        observed_bits += payload.size();
      });
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
  auto outcome = Supervisor(g, cfg, {}).run(factory, 20).outcome;
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.metrics.repetitions_executed +
                outcome.metrics.repetitions_skipped,
            20u);
  // Each executed repetition is exactly one round; costs cover only what ran.
  EXPECT_EQ(outcome.metrics.rounds, outcome.metrics.repetitions_executed);

  // Exhaustive mode: every repetition runs and the costs sum over all 20.
  SupervisorConfig all;
  all.early_exit = false;
  auto full = Supervisor(g, cfg, all).run(factory, 20).outcome;
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
  // The engine topology checks the ids once, when the Network is built.
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.namespace_size = 10;
  EXPECT_THROW(Network(g, cfg, {3, 11}), CheckFailure);
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

// --------------------------------------------------------- edge tables --
// detail::build_edge_tables inverts every port in one counting-sort pass.
// For each directed edge e = offsets[v] + p into w = row(v)[p], the tables
// must lead back to v from w's side, name w's own index for the reverse
// edge (an involution), and carry w's identifier.

void expect_tables_invert_ports(const Graph& g,
                                const std::vector<NodeId>& ids) {
  const GraphCsr csr = g.csr();
  const detail::EdgeTables t = detail::build_edge_tables(csr, ids);
  ASSERT_EQ(t.rev_port.size(), csr.num_directed_edges());
  ASSERT_EQ(t.rev_edge.size(), csr.num_directed_edges());
  ASSERT_EQ(t.neighbor_ids.size(), csr.num_directed_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto row = csr.row(v);
    for (std::uint32_t p = 0; p < row.size(); ++p) {
      const std::uint64_t e = csr.offsets[v] + p;
      const Vertex w = row[p];
      ASSERT_LT(t.rev_port[e], csr.row(w).size()) << "edge " << e;
      EXPECT_EQ(csr.row(w)[t.rev_port[e]], v) << "edge " << e;
      EXPECT_EQ(t.rev_edge[e], csr.offsets[w] + t.rev_port[e]);
      EXPECT_EQ(t.rev_edge[t.rev_edge[e]], e);
      EXPECT_EQ(t.neighbor_ids[e], ids[w]);
    }
  }
}

std::vector<NodeId> shuffled_ids(Vertex n, std::uint64_t seed) {
  std::vector<NodeId> ids(n);
  for (Vertex v = 0; v < n; ++v) ids[v] = 3 * static_cast<NodeId>(v) + 1;
  Rng rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng);
  return ids;
}

TEST(EdgeTables, InvertEveryPortOnRandomGraphs) {
  Rng rng(23);
  const Graph gnm = build::gnm(500, 4000, rng);
  expect_tables_invert_ports(gnm, shuffled_ids(gnm.num_vertices(), 1));
  const Graph tree = build::random_tree(2000, rng);
  expect_tables_invert_ports(tree, shuffled_ids(tree.num_vertices(), 2));
}

TEST(EdgeTables, InvertPortsAboveSixteenBits) {
  // The hub's ports run to 69999; each leaf's one port leads back there.
  const Graph star = build::star(70000);
  expect_tables_invert_ports(star, shuffled_ids(star.num_vertices(), 3));
}

TEST(EdgeTables, InvertEveryPortOfAGknFrame) {
  // Endpoints, triangle corners and the high-degree fixed marker vertices
  // under a shuffled identifier assignment.
  const lb::GknGraph frame = lb::build_gkn_frame(2, 512);
  expect_tables_invert_ports(frame.graph,
                             shuffled_ids(frame.graph.num_vertices(), 4));
}

TEST(EdgeTables, AsymmetricCsrFailsTheCheck) {
  // 0 -> 1 with no way back.
  GraphCsr one_way{{0, 1, 1}, {1}};
  EXPECT_THROW(detail::build_edge_tables(one_way, {0, 1}), CheckFailure);
  // A directed 3-cycle: every in-degree equals its out-degree, yet no tail
  // appears in its head's row.
  GraphCsr cycle{{0, 1, 2, 3}, {1, 2, 0}};
  EXPECT_THROW(detail::build_edge_tables(cycle, {0, 1, 2}), CheckFailure);
}

// ------------------------------------------------------- activity hint --
// The round kernel honors NodeApi::sleep_until and skips idle rounds at
// every worker count. The reference is the same program behind
// fuzz::ignore_activity_hints, which drops every hint so the kernel runs
// each node in every round. Each test runs the kernel at W = 1 (inline) and
// W = 2 (threads, channels) against that reference and requires bit-
// identical outcomes, and checks from the program's own log that the kernel
// really skipped — otherwise a silent fallback to round-by-round execution
// would pass every equivalence check.

constexpr std::uint64_t kNever = 1'000'000'000;
constexpr std::uint32_t kWidths[] = {1, 2};

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

/// What one Napper run may vary besides the config.
struct NapSpec {
  std::uint64_t ping_at = kNever;
  std::uint64_t halt_at = kNever;
  bool pinger_naps = true;
};

/// One run of Napper: the outcome and the rounds each node ran.
struct NapRun {
  RunOutcome outcome;
  std::vector<std::vector<std::uint64_t>> runs;
};

/// Napper at `workers`; `honor_hints` off runs the hint-ignoring reference.
NapRun run_napper(const Graph& g, NetworkConfig cfg, std::uint32_t workers,
                  const NapSpec& spec, bool honor_hints = true) {
  NapRun nap;
  nap.runs.resize(g.num_vertices());
  auto* runs = &nap.runs;
  cfg.shard.workers = workers;
  const Network net(g, cfg);
  ProgramFactory factory = [=](std::uint32_t v) {
    return std::make_unique<Napper>(&(*runs)[v], spec.ping_at, spec.halt_at,
                                    spec.pinger_naps);
  };
  if (!honor_hints) factory = fuzz::ignore_activity_hints(std::move(factory));
  nap.outcome = net.run(factory);
  return nap;
}

NapRun run_reference(const Graph& g, const NetworkConfig& cfg,
                     const NapSpec& spec) {
  return run_napper(g, cfg, 1, spec, /*honor_hints=*/false);
}

std::string trace_jsonl(const RunOutcome& outcome) {
  std::ostringstream os;
  outcome.trace.write_jsonl(os);
  return os.str();
}

/// Every model-exact output of the kernel's run against the reference.
void expect_same_outcome(const RunOutcome& kernel,
                         const RunOutcome& reference) {
  EXPECT_EQ(kernel.completed, reference.completed);
  EXPECT_EQ(kernel.detected, reference.detected);
  EXPECT_EQ(kernel.verdicts, reference.verdicts);
  EXPECT_EQ(kernel.metrics.rounds, reference.metrics.rounds);
  EXPECT_EQ(kernel.metrics.messages, reference.metrics.messages);
  EXPECT_EQ(kernel.metrics.total_bits, reference.metrics.total_bits);
  EXPECT_EQ(kernel.metrics.bits_sent_by_node,
            reference.metrics.bits_sent_by_node);
  EXPECT_EQ(kernel.trace.approx_bytes(), reference.trace.approx_bytes());
  EXPECT_TRUE(kernel.faults == reference.faults);
  EXPECT_EQ(trace_jsonl(kernel), trace_jsonl(reference));
}

NetworkConfig traced_config() {
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.trace.enabled = true;
  cfg.trace.per_node = true;
  return cfg;
}

std::string width_label(std::uint32_t workers) {
  return "W=" + std::to_string(workers);
}

using Runs = std::vector<std::uint64_t>;

TEST(ActivityHint, MailWakesASleeperBeforeItsTargetRound) {
  // On C_6 at W = 2 (Range), nodes 0-2 and 3-5 share a worker: the ping
  // reaches node 1 by local delivery and node 5 through a channel.
  const Graph g = build::cycle(6);
  const NapSpec spec{5, 40};
  const NapRun reference = run_reference(g, traced_config(), spec);
  EXPECT_EQ(reference.runs[1].size(), 41u);  // the reference never sleeps
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    const NapRun nap = run_napper(g, traced_config(), w, spec);
    expect_same_outcome(nap.outcome, reference.outcome);
    EXPECT_EQ(nap.outcome.metrics.rounds, 41u);
    EXPECT_EQ(nap.outcome.verdicts[1], Verdict::Reject);
    EXPECT_EQ(nap.outcome.verdicts[5], Verdict::Reject);
    EXPECT_EQ(nap.runs[0], (Runs{0, 5, 40}));
    EXPECT_EQ(nap.runs[1], (Runs{0, 6, 40}));  // the ping lands in round 6
    EXPECT_EQ(nap.runs[5], (Runs{0, 6, 40}));
    EXPECT_EQ(nap.runs[3], (Runs{0, 40}));
  }
}

TEST(ActivityHint, MailFromAnAwakeSenderWakesASleeper) {
  // Node 0 never sleeps, so in the ping round the only sleepers are the
  // receivers, which did not run that round.
  const Graph g = build::path(5);
  const NapSpec spec{5, 40, /*pinger_naps=*/false};
  const NapRun reference = run_reference(g, traced_config(), spec);
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    const NapRun nap = run_napper(g, traced_config(), w, spec);
    expect_same_outcome(nap.outcome, reference.outcome);
    EXPECT_EQ(nap.outcome.verdicts[1], Verdict::Reject);
    EXPECT_EQ(nap.runs[0].size(), 41u);
    EXPECT_EQ(nap.runs[1], (Runs{0, 6, 40}));
  }
}

TEST(ActivityHint, ASleeperWakesAtItsTargetRound) {
  const Graph g = build::cycle(6);
  const NapSpec spec{kNever, 30};
  const NapRun reference = run_reference(g, traced_config(), spec);
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    const NapRun nap = run_napper(g, traced_config(), w, spec);
    expect_same_outcome(nap.outcome, reference.outcome);
    EXPECT_TRUE(nap.outcome.completed);
    EXPECT_EQ(nap.outcome.metrics.rounds, 31u);
    for (const Runs& runs : nap.runs) EXPECT_EQ(runs, (Runs{0, 30}));
  }
}

TEST(ActivityHint, AllAsleepStretchRunsIntoTheRoundCap) {
  const Graph g = build::path(4);
  NetworkConfig cfg = traced_config();
  cfg.max_rounds = 100;
  const NapSpec spec;
  const NapRun reference = run_reference(g, cfg, spec);
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    const NapRun nap = run_napper(g, cfg, w, spec);
    expect_same_outcome(nap.outcome, reference.outcome);
    EXPECT_EQ(nap.outcome.metrics.rounds, 100u);
    EXPECT_EQ(nap.outcome.faults.stalled_nodes,
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
    for (const Runs& runs : nap.runs) EXPECT_EQ(runs, (Runs{0}));
  }
}

TEST(ActivityHint, StallWatchdogFiresInTheSameRound) {
  const Graph g = build::path(4);
  NetworkConfig cfg = traced_config();
  cfg.stall_window = 7;
  const NapSpec spec{3, kNever};
  const NapRun reference = run_reference(g, cfg, spec);
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    const NapRun nap = run_napper(g, cfg, w, spec);
    expect_same_outcome(nap.outcome, reference.outcome);
    // The ping lands in round 4, the last progress; the window ends at 11.
    EXPECT_EQ(nap.outcome.faults.watchdog_stalls, 1u);
    EXPECT_EQ(nap.outcome.metrics.rounds, 11u);
    EXPECT_EQ(nap.runs[1], (Runs{0, 4}));
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
  const NapSpec spec{5, 40};
  const NapRun reference = run_reference(g, cfg, spec);
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    const NapRun nap = run_napper(g, cfg, w, spec);
    expect_same_outcome(nap.outcome, reference.outcome);
    EXPECT_EQ(nap.outcome.faults.crashed_nodes,
              (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(nap.outcome.faults.watchdog_stalls, 1u);
    EXPECT_EQ(nap.outcome.metrics.rounds, 33u);
    EXPECT_EQ(nap.runs[2], (Runs{0}));
  }
}

TEST(ActivityHint, TelemetryCountsSkippedRounds) {
  const Graph g = build::path(5);
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE(width_label(w));
    obs::Telemetry telemetry;
    NetworkConfig cfg = traced_config();
    cfg.telemetry = &telemetry;
    const NapRun nap = run_napper(g, cfg, w, NapSpec{5, 40});
    const RunOutcome& out = nap.outcome;
    EXPECT_EQ(nap.runs[1], (Runs{0, 6, 40}));
    EXPECT_EQ(telemetry.counter("sync_rounds").value(), out.metrics.rounds);
    EXPECT_EQ(telemetry.counter("sync_messages").value(),
              out.metrics.messages);
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
