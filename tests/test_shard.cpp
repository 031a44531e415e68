// Tests for the synchronous round kernel's worker dimension
// (congest/shard.hpp) and its range partition: the boundaries against a
// greedy reference assignment, partition invariants and balance bounds,
// and the hard bit-identity contract — every outcome field the inline run
// (workers 0) promises to be deterministic must be byte-for-byte identical
// at every worker count, empty ranges included, and any --jobs fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "congest/network.hpp"
#include "congest/partition.hpp"
#include "congest/snapshot.hpp"
#include "congest/supervisor.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/generator.hpp"
#include "graph/builders.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace csd::congest {
namespace {

std::string trace_jsonl(const RunOutcome& outcome) {
  std::ostringstream os;
  outcome.trace.write_jsonl(os);
  return os.str();
}

/// Full deterministic-outcome comparison: everything the determinism
/// contract covers (deliberately not timers or trace_bytes-vs-capacity
/// internals — trace JSONL equality subsumes the trace).
void expect_outcomes_identical(const RunOutcome& a, const RunOutcome& b,
                               const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.detected, b.detected) << label;
  EXPECT_EQ(a.verdicts, b.verdicts) << label;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << label;
  EXPECT_EQ(a.metrics.messages, b.metrics.messages) << label;
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits) << label;
  EXPECT_EQ(a.metrics.max_message_bits, b.metrics.max_message_bits) << label;
  EXPECT_EQ(a.metrics.bits_sent_by_node, b.metrics.bits_sent_by_node)
      << label;
  EXPECT_TRUE(a.faults == b.faults) << label;
  EXPECT_EQ(trace_jsonl(a), trace_jsonl(b)) << label;
}

/// One message as a run's observer saw it: (round, src, dst, payload).
using Event = std::tuple<std::uint64_t, Vertex, Vertex, BitVec>;

MessageObserver record_into(std::vector<Event>& events) {
  return [&events](std::uint64_t round, Vertex src, Vertex dst,
                   const BitVec& payload) {
    events.emplace_back(round, src, dst, payload);
  };
}

/// Traffic-heavy randomized program: phase declarations, per-node RNG,
/// variable-size messages, staggered halts, and occasional rejects — every
/// order-sensitive engine feature in one workload.
class Chatter final : public NodeProgram {
 public:
  explicit Chatter(std::uint64_t rounds) : rounds_(rounds) {}
  void on_round(NodeApi& api) override {
    api.phase(api.round() < rounds_ / 2 ? "spread" : "collect");
    const std::uint64_t bits = 1 + api.rng().below(api.bandwidth());
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      if (api.rng().below(4) == 0) continue;  // skip some ports
      wire::Writer w;
      w.u(api.rng().below(1ull << std::min<std::uint64_t>(bits, 32)),
          static_cast<unsigned>(std::min<std::uint64_t>(bits, 32)));
      api.send(p, std::move(w).take());
    }
    if (api.rng().below(1000) == 0) api.reject();
    if (api.round() + 1 >= rounds_ + api.id() % 5) api.halt();
  }

 private:
  std::uint64_t rounds_;
};

/// Violates the model on purpose (duplicate send, bandwidth overrun) so the
/// merged violation list's order is pinned against the inline run.
class Naughty final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.round() == 0 && api.degree() > 0) {
      wire::Writer w1;
      w1.u(1, 4);
      api.send(0, std::move(w1).take());
      wire::Writer w2;
      w2.u(2, 4);
      api.send(0, std::move(w2).take());  // duplicate send
      if (api.degree() > 1) {
        BitVec big;
        for (int i = 0; i < 100; ++i) big.push_back(true);
        api.send(1, std::move(big));  // bandwidth overrun
      }
    }
    if (api.round() >= 1) api.halt();
  }
};

ProgramFactory chatter(std::uint64_t rounds) {
  return [rounds](std::uint32_t) { return std::make_unique<Chatter>(rounds); };
}

// ---------------------------------------------------------------------------
// Partitioner invariants
// ---------------------------------------------------------------------------

TEST(Partition, OwnedListsPartitionVerticesAndEdges) {
  Rng rng(99);
  const std::vector<Graph> families = {
      build::path(64), build::cycle(64), build::complete(24),
      build::gnp(80, 0.1, rng)};
  for (const Graph& g : families) {
    const GraphCsr& csr = g.csr();
    for (const std::uint32_t w_count : {1u, 2u, 3u, 8u, 64u, 100u}) {
      const Partition part = Partition::build(csr, w_count);
      std::vector<std::uint8_t> seen(g.num_vertices(), 0);
      std::uint64_t edges = 0;
      for (std::uint32_t w = 0; w < w_count; ++w) {
        Vertex prev = 0;
        bool first = true;
        for (const Vertex v : part.owned(w)) {
          ASSERT_LT(v, g.num_vertices());
          EXPECT_EQ(part.owner(v), w);
          EXPECT_TRUE(first || v > prev) << "owned list not ascending";
          ASSERT_EQ(seen[v], 0) << "vertex owned twice";
          seen[v] = 1;
          prev = v;
          first = false;
        }
        edges += part.owned_directed_edges(w);
      }
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        EXPECT_EQ(seen[v], 1) << "vertex " << v << " unowned";
      // Edge ownership (by source vertex) partitions the dense index.
      EXPECT_EQ(edges, csr.num_directed_edges());
      // Directed cuts come in reverse pairs.
      EXPECT_EQ(part.cut_directed_edges() % 2, 0u);
    }
  }
}

TEST(Partition, RangePolicyIsContiguousAndEdgeBalanced) {
  Rng rng(7);
  const std::vector<Graph> families = {build::path(200), build::cycle(200),
                                       build::gnp(160, 0.08, rng)};
  for (const Graph& g : families) {
    const GraphCsr& csr = g.csr();
    std::uint64_t max_weight = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      max_weight = std::max<std::uint64_t>(max_weight, g.degree(v) + 1);
    for (const std::uint32_t w_count : {2u, 4u, 8u}) {
      const Partition part = Partition::build(csr, w_count);
      // Contiguity: owners are non-decreasing in vertex order.
      for (Vertex v = 1; v < g.num_vertices(); ++v)
        EXPECT_GE(part.owner(v), part.owner(v - 1));
      // Balance: no worker exceeds its weight share by more than one
      // vertex's worth of weight (the greedy cut's granularity).
      const std::uint64_t total = csr.num_directed_edges() + g.num_vertices();
      for (std::uint32_t w = 0; w < w_count; ++w) {
        const std::uint64_t weight =
            part.owned_directed_edges(w) + part.owned(w).size();
        EXPECT_LE(weight, total / w_count + max_weight)
            << "worker " << w << " of " << w_count;
      }
    }
  }
}

/// Reference owner table, one greedy pass: each vertex weighs degree + 1,
/// and worker w takes vertices until the weight before the next one
/// reaches its share of the total.
std::vector<std::uint32_t> greedy_owners(const GraphCsr& csr,
                                         std::uint32_t workers) {
  const Vertex n = csr.num_vertices();
  const std::uint64_t total = csr.num_directed_edges() + n;
  std::vector<std::uint32_t> owner(n);
  std::uint64_t acc = 0;
  std::uint32_t w = 0;
  for (Vertex v = 0; v < n; ++v) {
    while (w + 1 < workers &&
           acc * workers >= static_cast<std::uint64_t>(w + 1) * total)
      ++w;
    owner[v] = w;
    acc += csr.degree(v) + 1;
  }
  return owner;
}

TEST(Partition, BoundariesMatchTheGreedyAssignment) {
  Rng rng(41);
  std::vector<Graph> families = {
      Graph(0),          Graph(1),          build::path(2),
      build::path(97),   build::cycle(50),  build::complete(24),
      build::star(40),   build::grid(9, 7), build::gnp(120, 0.05, rng),
      build::gnp(64, 0.3, rng)};
  Graph isolated_tail = build::star(12);  // a hub, then isolated vertices
  isolated_tail.add_vertices(30);
  families.push_back(std::move(isolated_tail));
  for (const Graph& g : families) {
    const GraphCsr& csr = g.csr();
    const Vertex n = g.num_vertices();
    for (const std::uint32_t w_count :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 64u, 100u}) {
      SCOPED_TRACE(testing::Message() << "n = " << n << ", W = " << w_count);
      const Partition part = Partition::build(csr, w_count);
      const std::vector<std::uint32_t> owner = greedy_owners(csr, w_count);
      ASSERT_EQ(part.workers(), w_count);
      EXPECT_EQ(part.first(0), 0u);
      EXPECT_EQ(part.first(w_count), n);
      std::vector<std::uint64_t> edges(w_count, 0);
      std::uint64_t cut = 0;
      for (Vertex v = 0; v < n; ++v) {
        EXPECT_EQ(part.owner(v), owner[v]) << "vertex " << v;
        edges[owner[v]] += csr.degree(v);
        for (const Vertex u : csr.row(v)) cut += owner[u] != owner[v];
      }
      for (std::uint32_t w = 0; w < w_count; ++w) {
        const auto range = part.owned(w);
        EXPECT_EQ(range.size(), static_cast<std::size_t>(std::count(
                                    owner.begin(), owner.end(), w)))
            << "worker " << w;
        for (const Vertex v : range) EXPECT_EQ(owner[v], w) << "vertex " << v;
        EXPECT_EQ(part.owned_directed_edges(w), edges[w]) << "worker " << w;
      }
      EXPECT_EQ(part.cut_directed_edges(), cut);
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: W workers vs the inline run
// ---------------------------------------------------------------------------

TEST(Shard, W1BitIdenticalToClassicOnFuzzSmokeCorpus) {
  // W = 1 runs the kernel inline, with activity-driven skipping. The
  // reference runs the same programs with every NodeApi::sleep_until hint
  // dropped (fuzz::ignore_activity_hints), so each node runs in every
  // round.
  for (std::uint64_t case_seed = 1; case_seed <= 25; ++case_seed) {
    const fuzz::FuzzCase c = fuzz::generate_case(case_seed);
    const Graph host = fuzz::build_graph(c);
    const std::uint64_t bandwidth = fuzz::effective_bandwidth(c, host);
    NetworkConfig cfg;
    cfg.bandwidth = bandwidth;
    cfg.max_rounds = fuzz::round_budget(c, host, bandwidth);
    cfg.seed = c.seed;
    cfg.trace.enabled = true;
    if (c.has_faults()) cfg.faults = fuzz::fault_plan(c);
    const ProgramFactory factory = fuzz::make_program(c);

    cfg.shard.workers = 1;
    const Network net(host, cfg);
    expect_outcomes_identical(net.run(fuzz::ignore_activity_hints(factory)),
                              net.run(factory),
                              "case seed " + std::to_string(case_seed));
  }
}

TEST(Shard, MatrixBitIdenticalAcrossWorkers) {
  Rng rng(17);
  Graph g = build::random_tree(96, rng);
  build::plant_subgraph(g, build::cycle(4), rng);
  NetworkConfig cfg;
  cfg.bandwidth = 24;
  cfg.max_rounds = 64;
  cfg.seed = 41;
  cfg.trace.enabled = true;
  cfg.trace.per_edge = true;
  const Network classic(g, cfg);
  const RunOutcome reference = classic.run(chatter(12));
  EXPECT_GT(reference.metrics.messages, 0u);
  for (const std::uint32_t w_count : {1u, 2u, 3u, 8u}) {
    NetworkConfig shard_cfg = cfg;
    shard_cfg.shard.workers = w_count;
    const Network net(g, shard_cfg);
    expect_outcomes_identical(reference, net.run(chatter(12)),
                              "W=" + std::to_string(w_count));
  }
}

TEST(Shard, MoreWorkersThanNodesLeavesRangesEmpty) {
  // W = 16 on K_12: four workers own no node, so empty ranges go through
  // phase A (nothing to run, clear or scan), phase B (no channel to drain)
  // and the barrier; every other worker owns one node and ships every
  // frame it sends.
  const Graph g = build::complete(12);
  const Partition part = Partition::build(g.csr(), 16);
  std::uint32_t empty = 0;
  for (std::uint32_t w = 0; w < 16; ++w) empty += part.owned(w).empty();
  ASSERT_EQ(empty, 4u);
  EXPECT_EQ(part.cut_directed_edges(), g.csr().num_directed_edges());

  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 24;
  cfg.seed = 13;
  cfg.trace.enabled = true;
  cfg.trace.per_edge = true;
  cfg.faults.drop = 0.1;
  cfg.faults.crashes.push_back({4, 3});
  std::vector<Event> inline_events;
  const RunOutcome reference =
      Network(g, cfg).run(chatter(8), cfg.seed, record_into(inline_events));
  ASSERT_GT(reference.metrics.messages, 0u);
  ASSERT_FALSE(reference.faults.crashed_nodes.empty());
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 16;
  std::vector<Event> sharded_events;
  expect_outcomes_identical(
      reference,
      Network(g, shard_cfg).run(chatter(8), cfg.seed,
                                record_into(sharded_events)),
      "W=16 on K_12");
  EXPECT_EQ(inline_events, sharded_events);
}

TEST(Shard, AmplifiedRunsIdenticalAtEveryWorkersAndJobs) {
  Rng rng(29);
  const Graph g = build::gnp(48, 0.08, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 40;
  cfg.seed = 5;
  cfg.trace.enabled = true;
  SupervisorConfig sup;
  sup.early_exit = false;
  const RunOutcome reference =
      Supervisor(g, cfg, sup).run(chatter(8), 6).outcome;
  for (const std::uint32_t w_count : {1u, 2u, 8u}) {
    for (const unsigned jobs : {1u, 4u}) {
      NetworkConfig shard_cfg = cfg;
      shard_cfg.shard.workers = w_count;
      SupervisorConfig sharded_sup = sup;
      sharded_sup.jobs = jobs;
      const RunOutcome other =
          Supervisor(g, shard_cfg, sharded_sup).run(chatter(8), 6).outcome;
      expect_outcomes_identical(reference, other,
                                "W=" + std::to_string(w_count) + " jobs=" +
                                    std::to_string(jobs));
    }
  }
}

TEST(Shard, FaultyRunBitIdenticalIncludingReportOrder) {
  const Graph g = build::cycle(40);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 48;
  cfg.seed = 3;
  cfg.trace.enabled = true;
  cfg.faults.drop = 0.08;
  cfg.faults.corrupt = 0.05;
  cfg.faults.crashes.push_back({7, 4});
  cfg.faults.crashes.push_back({23, 9});
  const Network classic(g, cfg);
  const RunOutcome reference = classic.run(chatter(16));
  EXPECT_FALSE(reference.faults.crashed_nodes.empty());
  for (const std::uint32_t w_count : {2u, 8u}) {
    NetworkConfig shard_cfg = cfg;
    shard_cfg.shard.workers = w_count;
    const Network net(g, shard_cfg);
    expect_outcomes_identical(reference, net.run(chatter(16)),
                              "faulty W=" + std::to_string(w_count));
  }
}

TEST(Shard, ViolationListOrderMatchesClassic) {
  const Graph g = build::complete(12);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 8;
  const auto naughty = [](std::uint32_t) { return std::make_unique<Naughty>(); };
  const Network classic(g, cfg);
  const RunOutcome reference = classic.run(naughty);
  ASSERT_GE(reference.faults.violations.size(), 12u);
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 5;
  const Network net(g, shard_cfg);
  const RunOutcome sharded = net.run(naughty);
  ASSERT_EQ(sharded.faults.violations.size(),
            reference.faults.violations.size());
  for (std::size_t i = 0; i < reference.faults.violations.size(); ++i)
    EXPECT_TRUE(sharded.faults.violations[i] == reference.faults.violations[i])
        << "violation " << i << " out of order";
}

TEST(Shard, TranscriptAndOnMessageReplayInClassicOrder) {
  const Graph g = build::grid(6, 6);
  NetworkConfig cfg;
  cfg.bandwidth = 12;
  cfg.max_rounds = 24;
  cfg.seed = 9;
  std::vector<Event> classic_events;
  const Network classic(g, cfg);
  const RunOutcome reference =
      classic.run(chatter(6), cfg.seed, record_into(classic_events));
  ASSERT_FALSE(classic_events.empty());

  std::vector<Event> sharded_events;
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 4;
  const Network net(g, shard_cfg);
  expect_outcomes_identical(
      reference, net.run(chatter(6), cfg.seed, record_into(sharded_events)),
      "transcript");
  EXPECT_EQ(classic_events, sharded_events);
}

/// The payload node `id` sends in `round`: 16 bits naming both, so a
/// flipped bit always shows.
BitVec stamp(std::uint64_t round, NodeId id) {
  wire::Writer w;
  w.u((id << 6 | round) & 0xffff, 16);
  return std::move(w).take();
}

/// Sends stamp(round, id) on every port for `rounds` rounds, counting the
/// frames that arrive differing from their sender's stamp, and halts after
/// reading the last round's mail.
class Stamper final : public NodeProgram {
 public:
  Stamper(std::uint64_t rounds, std::uint64_t* damaged)
      : rounds_(rounds), damaged_(damaged) {}
  void on_round(NodeApi& api) override {
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      const BitVec* got = api.inbox(p);
      if (got != nullptr && !(*got == stamp(api.round() - 1,
                                            api.neighbor_id(p))))
        ++*damaged_;
    }
    if (api.round() == rounds_) {
      api.halt();
      return;
    }
    for (std::uint32_t p = 0; p < api.degree(); ++p)
      api.send(p, stamp(api.round(), api.id()));
  }

 private:
  std::uint64_t rounds_;
  std::uint64_t* damaged_;
};

TEST(Shard, ObserverSeesPayloadsBeforeCorruptionAtEveryWorkerCount) {
  const Graph g = build::grid(6, 6);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 16;
  cfg.seed = 5;
  cfg.faults.corrupt = 0.2;
  cfg.trace.enabled = true;
  cfg.trace.per_edge = true;
  struct Observed {
    RunOutcome outcome;
    std::vector<Event> events;
    std::uint64_t damaged = 0;  // frames that reached a receiver altered
  };
  const auto run = [&](std::uint32_t workers, bool observe) {
    NetworkConfig c = cfg;
    c.shard.workers = workers;
    std::vector<std::uint64_t> damaged(g.num_vertices(), 0);
    Observed o;
    o.outcome = Network(g, c).run(
        [&damaged](std::uint32_t v) {
          return std::make_unique<Stamper>(6, &damaged[v]);
        },
        c.seed, observe ? record_into(o.events) : MessageObserver{});
    for (const std::uint64_t d : damaged) o.damaged += d;
    return o;
  };

  // The observer sees every payload as its sender stamped it (ids are
  // topology indices), while every corrupted frame reaches its receiver
  // altered.
  const Observed inline_run = run(1, true);
  ASSERT_EQ(inline_run.events.size(), inline_run.outcome.metrics.messages);
  for (const auto& [round, src, dst, payload] : inline_run.events)
    EXPECT_TRUE(payload == stamp(round, src)) << round << " " << src;
  EXPECT_GT(inline_run.outcome.faults.frames_corrupted, 0u);
  EXPECT_EQ(inline_run.damaged, inline_run.outcome.faults.frames_corrupted);

  // The same events at W = 3.
  const Observed sharded = run(3, true);
  EXPECT_EQ(inline_run.events, sharded.events);
  expect_outcomes_identical(inline_run.outcome, sharded.outcome, "W = 3");

  // Attaching the observer changes nothing, trace bytes included.
  expect_outcomes_identical(inline_run.outcome, run(1, false).outcome,
                            "unobserved, W = 1");
  expect_outcomes_identical(sharded.outcome, run(3, false).outcome,
                            "unobserved, W = 3");
}

TEST(Shard, TraceKeepsTheLowestDeclaringNodesPhaseAtEveryWorkerCount) {
  // Nodes disagree on the phase: in each round a shifting subset declares
  // one of five names. The trace keeps the lowest declaring node's, at
  // W = 1 because the first declaration wins and at W >= 2 because the
  // barrier forwards the lowest worker's first declaration.
  class Declarer final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      constexpr std::string_view kNames[] = {"p0", "p1", "p2", "p3", "p4"};
      if ((api.id() + api.round()) % 4 == 0)
        api.phase(kNames[(api.id() + api.round()) % 5]);
      for (std::uint32_t p = 0; p < api.degree(); ++p)
        if (api.rng().below(3) == 0) api.send(p, stamp(api.round(), api.id()));
      if (api.round() == 9) api.halt();
    }
  };
  const auto factory = [](std::uint32_t) {
    return std::make_unique<Declarer>();
  };
  Rng rng(37);
  const Graph g = build::gnp(40, 0.15, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 16;
  cfg.trace.enabled = true;
  const RunOutcome reference = Network(g, cfg).run(factory);
  ASSERT_TRUE(reference.completed);
  for (const std::uint32_t w_count : {2u, 3u, 8u}) {
    NetworkConfig shard_cfg = cfg;
    shard_cfg.shard.workers = w_count;
    expect_outcomes_identical(reference, Network(g, shard_cfg).run(factory),
                              "phases, W=" + std::to_string(w_count));
  }
}

TEST(Shard, BroadcastOnlyModeMatches) {
  const Graph g = build::star(9);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 6;
  cfg.broadcast_only = true;
  const Network classic(g, cfg);
  const RunOutcome reference = classic.run(chatter(3));
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 3;
  const Network net(g, shard_cfg);
  expect_outcomes_identical(reference, net.run(chatter(3)), "broadcast");
}

// ---------------------------------------------------------------------------
// Amplified checkpoints
// ---------------------------------------------------------------------------

TEST(Shard, AmplifiedCheckpointsAreBitIdenticalAndResumeAcrossWorkerCounts) {
  // The shard spec is outside config_digest(), so a supervised slice's
  // csd-ckpt-v1 bytes do not depend on the worker count it ran at, and the
  // checkpoint resumes at any other.
  Rng rng(31);
  const Graph g = build::gnp(56, 0.07, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 48;
  cfg.seed = 21;
  cfg.trace.enabled = true;
  cfg.faults.drop = 0.05;
  constexpr std::uint32_t kReps = 5;
  SupervisorConfig sup;
  sup.early_exit = false;
  const RunOutcome reference =
      Supervisor(g, cfg, sup).run(chatter(10), kReps).outcome;
  ASSERT_GT(reference.faults.frames_dropped, 0u);

  SupervisorConfig sliced = sup;
  sliced.max_reps_per_call = 2;
  const SupervisedResult inline_slice =
      Supervisor(g, cfg, sliced).run(chatter(10), kReps);
  ASSERT_TRUE(inline_slice.paused);
  ASSERT_NE(inline_slice.checkpoint, nullptr);
  const std::string inline_bytes = to_json(*inline_slice.checkpoint).dump();
  // A resume traces only the repetitions it runs.
  const RunOutcome tail =
      Supervisor(g, cfg, sup)
          .resume(chatter(10), kReps,
                  snapshot_from_json(obs::Json::parse(inline_bytes)))
          .outcome;
  ASSERT_EQ(tail.trace.segments(), kReps - 2);

  for (const std::uint32_t w_count : {1u, 2u, 8u}) {
    NetworkConfig shard_cfg = cfg;
    shard_cfg.shard.workers = w_count;
    const SupervisedResult slice =
        Supervisor(g, shard_cfg, sliced).run(chatter(10), kReps);
    ASSERT_TRUE(slice.paused);
    ASSERT_NE(slice.checkpoint, nullptr);
    const std::string bytes = to_json(*slice.checkpoint).dump();
    EXPECT_EQ(bytes, inline_bytes) << "checkpoint differs at W=" << w_count;

    // Resume the written bytes at another worker count, and inline.
    const Snapshot written = snapshot_from_json(obs::Json::parse(bytes));
    NetworkConfig other_cfg = cfg;
    other_cfg.shard.workers = w_count == 8 ? 2 : 8;
    for (const NetworkConfig& resume_cfg : {other_cfg, cfg}) {
      const std::string label = "W=" + std::to_string(w_count) +
                                " resumed at W=" +
                                std::to_string(resume_cfg.shard.workers);
      const RunOutcome resumed = Supervisor(g, resume_cfg, sup)
                                     .resume(chatter(10), kReps, written)
                                     .outcome;
      EXPECT_EQ(resumed.completed, reference.completed) << label;
      EXPECT_EQ(resumed.detected, reference.detected) << label;
      EXPECT_EQ(resumed.verdicts, reference.verdicts) << label;
      EXPECT_EQ(resumed.metrics.rounds, reference.metrics.rounds) << label;
      EXPECT_EQ(resumed.metrics.messages, reference.metrics.messages)
          << label;
      EXPECT_EQ(resumed.metrics.total_bits, reference.metrics.total_bits)
          << label;
      EXPECT_EQ(resumed.metrics.max_message_bits,
                reference.metrics.max_message_bits)
          << label;
      EXPECT_EQ(resumed.metrics.bits_sent_by_node,
                reference.metrics.bits_sent_by_node)
          << label;
      EXPECT_EQ(resumed.metrics.repetitions_executed, kReps) << label;
      EXPECT_EQ(resumed.trace.instance(), tail.trace.instance()) << label;
      EXPECT_EQ(resumed.trace.approx_bytes(), tail.trace.approx_bytes())
          << label;
      EXPECT_TRUE(resumed.faults == reference.faults) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Counters and the watchdog
// ---------------------------------------------------------------------------

TEST(Shard, ChannelCountersSurfaceInMetricsAndTraceSummary) {
  const Graph g = build::cycle(32);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 32;
  cfg.trace.enabled = true;
  cfg.shard.workers = 4;
  cfg.shard.channel_counters = true;
  const Network net(g, cfg);
  const RunOutcome outcome = net.run(chatter(8));
  EXPECT_EQ(outcome.metrics.counters.value("shard_workers"), 4u);
  EXPECT_EQ(outcome.metrics.counters.value("shard_cut_edges"), 8u);
  std::uint64_t channel_bytes = 0;
  for (std::uint32_t w = 0; w < 4; ++w)
    channel_bytes += outcome.metrics.counters.value(
        obs::worker_counter_name("shard_channel_bytes", w));
  EXPECT_GT(channel_bytes, 0u);
  EXPECT_NE(trace_jsonl(outcome).find("shard_channel_bytes_w0"),
            std::string::npos);

  // Off by default: the determinism matrix never sees worker-dependent
  // counters.
  NetworkConfig plain = cfg;
  plain.shard.channel_counters = false;
  const Network plain_net(g, plain);
  const RunOutcome plain_outcome = plain_net.run(chatter(8));
  EXPECT_EQ(plain_outcome.metrics.counters.value("shard_workers"), 0u);
  EXPECT_EQ(trace_jsonl(plain_outcome).find("shard_workers"),
            std::string::npos);
}

TEST(Shard, StallWindowFiresIdentically) {
  /// Never halts, never sends: the watchdog must cut every worker count at
  /// the same round with the same report.
  class Mute final : public NodeProgram {
   public:
    void on_round(NodeApi&) override {}
  };
  const Graph g = build::path(10);
  NetworkConfig cfg;
  cfg.max_rounds = 1000;
  cfg.stall_window = 7;
  const auto factory = [](std::uint32_t) { return std::make_unique<Mute>(); };
  const Network classic(g, cfg);
  const RunOutcome reference = classic.run(factory);
  EXPECT_EQ(reference.faults.watchdog_stalls, 1u);
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 3;
  const Network net(g, shard_cfg);
  expect_outcomes_identical(reference, net.run(factory), "stall");
}

// ---------------------------------------------------------------------------
// Workspace reuse: a Network hands each run the arenas, node records, crash
// and wake arrays an earlier run left, and a run must not see them.
// ---------------------------------------------------------------------------

/// Leaves state in every part of a workspace: wake rounds (it sleeps between
/// its sending rounds), heap payloads above BitVec::kInlineBits built from
/// scratch() (arena slots and the view's pool), RNG draws, rejects on some
/// nodes and early halts on others. `salt` picks which nodes do what.
class LeakProbe final : public NodeProgram {
 public:
  explicit LeakProbe(std::uint32_t salt) : salt_(salt) {}
  void on_round(NodeApi& api) override {
    const std::uint64_t r = api.round();
    const std::uint64_t period = 2 + (api.id() + salt_) % 3;
    const std::uint64_t stop = (api.id() + salt_) % 4 == 0 ? 3 : 11;
    bool mail = false;
    for (std::uint32_t p = 0; p < api.degree(); ++p)
      if (const BitVec* m = api.inbox(p)) {
        heard_ = heard_ * 1000003 + m->hash();
        mail = true;
      }
    if (r >= stop) {
      if ((api.id() + salt_) % 3 == 0 || heard_ % 5 == 0) api.reject();
      api.halt();
      return;
    }
    if (mail || r % period == 0)
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        if (api.rng().below(3) == 0) continue;
        BitVec payload = api.scratch();
        const std::uint64_t bits = 130 + api.rng().below(120);
        while (payload.size() + 64 <= bits) payload.append_bits(api.rng()(), 64);
        payload.append_bits(api.id() ^ salt_,
                            static_cast<unsigned>(bits - payload.size()));
        api.send(p, std::move(payload));
      }
    api.sleep_until(std::min((r / period + 1) * period, stop));
  }

 private:
  std::uint32_t salt_;
  std::uint64_t heard_ = 0;
};

ProgramFactory leak_probe(std::uint32_t salt) {
  return [salt](std::uint32_t) { return std::make_unique<LeakProbe>(salt); };
}

NetworkConfig leak_probe_config() {
  NetworkConfig cfg;
  cfg.bandwidth = 256;
  cfg.max_rounds = 40;
  cfg.trace.enabled = true;  // per-node rows included (the default)
  cfg.faults.drop = 0.2;
  cfg.faults.crashes.push_back({5, 2});
  return cfg;
}

TEST(Shard, ReusedWorkspaceLeaksNoState) {
  Rng rng(29);
  const Graph g = build::gnp(36, 0.2, rng);
  for (const std::uint32_t w_count : {1u, 3u}) {
    NetworkConfig cfg = leak_probe_config();
    cfg.shard.workers = w_count;
    const Network net(g, cfg);
    const RunOutcome first = net.run(leak_probe(1), 11);
    const RunOutcome other = net.run(leak_probe(2), 12);
    const RunOutcome again = net.run(leak_probe(1), 11);
    const std::string label = "W=" + std::to_string(w_count);
    // The probe reaches every part of the workspace, and the run between
    // differs from the first one.
    ASSERT_TRUE(first.detected) << label;
    ASSERT_FALSE(first.faults.crashed_nodes.empty()) << label;
    ASSERT_GT(first.faults.frames_dropped, 0u) << label;
    ASSERT_GT(first.metrics.max_message_bits, BitVec::kInlineBits) << label;
    ASSERT_FALSE(first.trace.instance().rounds.front().node_messages.empty())
        << label;
    ASSERT_NE(other.verdicts, first.verdicts) << label;
    expect_outcomes_identical(first, again, label);
    EXPECT_TRUE(first.trace.instance() == again.trace.instance()) << label;
  }
}

TEST(Shard, MovedNetworkRunsTheSame) {
  Rng rng(31);
  const Graph g = build::gnp(30, 0.25, rng);
  for (const std::uint32_t w_count : {1u, 3u}) {
    NetworkConfig cfg = leak_probe_config();
    cfg.shard.workers = w_count;
    Network net(g, cfg);
    const RunOutcome before = net.run(leak_probe(1), 7);
    const Network moved(std::move(net));
    const RunOutcome after = moved.run(leak_probe(1), 7);
    const std::string label = "moved W=" + std::to_string(w_count);
    expect_outcomes_identical(before, after, label);
    EXPECT_TRUE(before.trace.instance() == after.trace.instance()) << label;
  }
}

}  // namespace
}  // namespace csd::congest
