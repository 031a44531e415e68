#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "comm/cut_simulator.hpp"
#include "congest/async.hpp"
#include "congest/network.hpp"
#include "congest/partition.hpp"
#include "detect/even_cycle.hpp"
#include "graph/builders.hpp"
#include "graph/oracle.hpp"
#include "lowerbound/gkn.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace csd;

/// Process CPU time (user + system, all threads) in seconds.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Thm 1.1 C_4 detector settings shared by the THM11 workloads and
// async_faulty: k = 2, B = 64 and the library's default Turán constant
// (c = 4, the one `csd detect cycle 4` runs with).
constexpr std::uint64_t kThm11Bandwidth = 64;
// THM12 cut measurement: random traffic for two rounds at B = 32.
constexpr std::uint64_t kCutBandwidth = 32;
constexpr std::uint64_t kTrafficRounds = 2;

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

std::uint64_t verdict_hash(const std::vector<congest::Verdict>& verdicts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const congest::Verdict v : verdicts) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Wall and CPU clock around exactly one library call.
class Clock {
 public:
  void stop(CallResult& r) const {
    r.end_ns = now_ns();
    r.cpu_s = cpu_seconds() - cpu0_;
    r.start_ns = start_ns_;
  }

 private:
  double cpu0_ = cpu_seconds();
  std::int64_t start_ns_ = now_ns();
};

/// csd-trace-v2 round rows and EngineTimers, without per-node rows.
obs::TraceOptions traced_options() {
  obs::TraceOptions t;
  t.enabled = true;
  t.per_node = false;
  t.histogram = false;
  t.timers = true;
  return t;
}

struct RoundRows {
  std::uint64_t rows = 0;
  std::uint64_t active = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;

  void count(const obs::RunTrace& trace) {
    for (const obs::RoundRecord& r : trace.rounds()) {
      ++rows;
      if (r.messages != 0) ++active;
      messages += r.messages;
      bits += r.bits;
    }
  }
  void report(Layers& layers, std::uint32_t runs) const {
    layers["congest.rounds"] = static_cast<double>(rows) / runs;
    layers["congest.active_rounds"] = static_cast<double>(active) / runs;
    layers["congest.active_round_frac"] =
        rows == 0 ? 0 : static_cast<double>(active) / static_cast<double>(rows);
    layers["congest.messages"] = static_cast<double>(messages) / runs;
    layers["congest.bits"] = static_cast<double>(bits) / runs;
  }
};

/// Runs `fn` inside a span called `name`; returns the span's seconds.
template <class F>
double in_span(Spans& spans, std::string name, F&& fn) {
  const int id = spans.open(std::move(name));
  fn();
  spans.close(id);
  return spans.all()[static_cast<std::size_t>(id)].seconds();
}

/// Times calling `factory` once per node, as an engine run does before its
/// first round (the programs are destroyed after the span).
void probe_program_build(Spans& spans, Layers& layers,
                         const congest::ProgramFactory& factory, Vertex n) {
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  programs.reserve(n);
  layers["detect.program_build_s"] =
      in_span(spans, "detect.program_build", [&] {
        for (Vertex v = 0; v < n; ++v) programs.push_back(factory(v));
      });
}

// ---------------------------------------------------------------- THM11 --

detect::EvenCycleConfig thm11_config(std::uint32_t reps,
                                     std::uint32_t workers) {
  detect::EvenCycleConfig cfg;
  cfg.k = 2;
  cfg.repetitions = reps;
  cfg.amplify.jobs = 1;
  cfg.amplify.early_exit = false;
  cfg.shard.workers = workers;
  cfg.shard.policy = congest::PartitionPolicy::Range;
  return cfg;
}

/// The NetworkConfig detect_even_cycle builds for `cfg`.
congest::NetworkConfig thm11_network_config(const detect::EvenCycleConfig& cfg,
                                            Vertex n, std::uint64_t seed) {
  congest::NetworkConfig nc;
  nc.bandwidth = kThm11Bandwidth;
  nc.seed = seed;
  nc.trace = cfg.trace;
  nc.shard = cfg.shard;
  nc.max_rounds =
      detect::make_even_cycle_schedule(std::max<std::uint64_t>(2, n), cfg)
          .total_rounds() +
      1;
  return nc;
}

Group amplified_group(std::string name, const congest::RunOutcome& out,
                      std::uint32_t reps, std::uint64_t rounds_per_rep,
                      bool has_c4) {
  Group g;
  g.name = std::move(name);
  g.runs = reps;
  g.add("verdict_hash", verdict_hash(out.verdicts));
  g.add("detected", out.detected ? 1 : 0);
  g.add("completed", out.completed ? 1 : 0);
  g.add("rounds", out.metrics.rounds);
  g.add("messages", out.metrics.messages);
  g.add("total_bits", out.metrics.total_bits);
  g.add("max_message_bits", out.metrics.max_message_bits);
  g.require(out.completed, "did not complete");
  g.require(out.faults.clean(), "fault report not clean");
  g.require(!out.detected || has_c4,
            "rejected a C_4-free host (one-sided error violated)");
  g.require(out.metrics.repetitions_executed == reps,
            "not every repetition ran");
  g.require(out.metrics.rounds == std::uint64_t{reps} * rounds_per_rep,
            "rounds differ from the Thm 1.1 schedule");
  return g;
}

/// One THM11 input.
struct Host {
  std::string name;
  Graph graph;
};

/// Replays detect_even_cycle(host, cfg, B, seed) through Network,
/// Network::run and merge_amplified, with a span around each call, and sums
/// what the per-layer metrics need.
struct Thm11Replay {
  RoundRows rows;
  obs::EngineTimers timers;
  std::uint64_t channel_frames = 0;
  std::uint64_t channel_bytes = 0;
  double network_s = 0;
  double run_s = 0;
  double merge_s = 0;
  std::uint32_t runs = 0;

  congest::RunOutcome run(const Host& host, detect::EvenCycleConfig cfg,
                          std::uint64_t seed, Spans& spans) {
    cfg.trace = traced_options();
    cfg.shard.channel_counters = cfg.shard.workers != 0;
    const Vertex n = host.graph.num_vertices();
    const congest::NetworkConfig nc = thm11_network_config(cfg, n, seed);
    const congest::ProgramFactory factory = detect::even_cycle_program(cfg);
    const std::string engine =
        cfg.shard.workers == 0 ? "congest.sync.run" : "congest.shard.run";
    std::optional<congest::Network> net;
    network_s += in_span(spans, "congest.network_build",
                         [&] { net.emplace(host.graph, nc); });
    congest::RunOutcome acc = congest::make_amplified_accumulator(n);
    for (std::uint32_t rep = 0; rep < cfg.repetitions; ++rep) {
      congest::RunOutcome out;
      run_s += in_span(spans, engine, [&] {
        out = net->run(factory, derive_seed(seed, 0x5eedULL + rep));
      });
      rows.count(out.trace);
      timers.merge(out.metrics.timers);
      for (const auto& [name, value] : out.metrics.counters.entries()) {
        if (name.rfind("shard_channel_frames_w", 0) == 0)
          channel_frames += value;
        if (name.rfind("shard_channel_bytes_w", 0) == 0)
          channel_bytes += value;
      }
      merge_s += in_span(spans, "congest.amplify_merge", [&] {
        congest::merge_amplified(acc, std::move(out));
      });
      ++runs;
    }
    return acc;
  }

  /// Per-run metrics of a replay inside the traced wall, and the terms of
  /// that wall: network build, the engine's timer split, merge.
  void report(Layers& layers, std::vector<Term>& terms, Vertex n,
              bool sharded) const {
    const double compute = seconds(timers.compute_ns);
    const double delivery = seconds(timers.delivery_ns);
    const double other = run_s - compute - delivery;
    const double node_rounds =
        static_cast<double>(n) * static_cast<double>(rows.rows);
    layers["congest.network_build_s"] = network_s / runs;
    layers["congest.amplify_merge_s"] = merge_s / runs;
    rows.report(layers, runs);
    layers["congest.ns_per_node_round"] =
        rows.rows == 0 ? 0 : run_s / node_rounds * 1e9;
    layers["congest.ns_per_message"] =
        rows.messages == 0
            ? 0
            : delivery / static_cast<double>(rows.messages) * 1e9;
    const std::string engine = sharded ? "congest.shard" : "congest.sync";
    if (sharded) {
      report_shard(layers);
    } else {
      layers["congest.sync.run_s"] = run_s / runs;
      layers["detect.compute_s"] = compute / runs;
      layers["congest.sync.delivery_s"] = delivery / runs;
      layers["congest.sync.other_s"] = other / runs;
    }
    terms.push_back({"congest.network_build", network_s});
    terms.push_back({sharded ? "congest.shard.compute" : "detect.compute",
                     compute});
    terms.push_back({engine + ".delivery", delivery});
    terms.push_back({engine + ".other", other});
    terms.push_back({"congest.amplify_merge", merge_s});
  }

  /// The congest.shard.* metrics, per run. The sharded engine's timer split
  /// is approximate (DESIGN.md §12).
  void report_shard(Layers& layers) const {
    layers["congest.shard.run_s"] = run_s / runs;
    layers["congest.shard.compute_s"] = seconds(timers.compute_ns) / runs;
    layers["congest.shard.delivery_s"] = seconds(timers.delivery_ns) / runs;
    layers["congest.shard.us_per_superstep"] =
        rows.rows == 0 ? 0 : run_s / static_cast<double>(rows.rows) * 1e6;
    layers["congest.shard.channel_frames"] =
        static_cast<double>(channel_frames) / runs;
    layers["congest.shard.channel_bytes"] =
        static_cast<double>(channel_bytes) / runs;
  }
};

// The sharded engine's worker count in both THM11 workloads.
constexpr std::uint32_t kShardWorkers = 2;

/// Common shape of the two THM11 workloads: calls alternate over the hosts,
/// each call is one detect_even_cycle over `reps` repetitions.
class Thm11 : public Workload {
 public:
  Thm11(Vertex n, std::uint32_t reps, std::uint32_t workers,
        std::uint64_t seed)
      : n_(n), seed_(seed), cfg_(thm11_config(reps, workers)) {}

  void prepare() override {
    has_c4_.clear();
    for (const Host& h : hosts_)
      has_c4_.push_back(oracle::has_cycle_of_length(h.graph, 4));
    rounds_per_rep_ =
        detect::make_even_cycle_schedule(n_, cfg_).total_rounds();
  }

  CallResult call(std::uint64_t i) override {
    const std::size_t k = i % hosts_.size();
    CallResult r;
    r.runs = cfg_.repetitions;
    const Clock clock;
    const congest::RunOutcome out = detect::detect_even_cycle(
        hosts_[k].graph, cfg_, kThm11Bandwidth, engine_seed());
    clock.stop(r);
    r.outputs.push_back(group(k, out));
    return r;
  }

  TracedResult traced(Spans& spans, Layers& layers) override {
    TracedResult t;
    Thm11Replay replay;
    const int root = spans.open("traced_pass");
    for (std::uint32_t k = 0; k < hosts_.size(); ++k) {
      const congest::RunOutcome out =
          replay.run(hosts_[k], cfg_, engine_seed(), spans);
      t.replays.push_back({k, cfg_.repetitions, {group(k, out)}});
    }
    spans.close(root);
    t.runs = replay.runs;
    t.wall_s = spans.all()[static_cast<std::size_t>(root)].seconds();
    replay.report(layers, t.terms, n_, cfg_.shard.workers != 0);
    t.terms.push_back({"glue", spans.self_s("traced_pass")});

    // Probes of builds that run inside Network::run.
    probe_program_build(spans, layers, detect::even_cycle_program(cfg_), n_);
    const GraphCsr& csr = hosts_.front().graph.csr();
    std::optional<congest::Partition> part;
    layers["congest.partition_build_s"] =
        in_span(spans, "congest.partition_build", [&] {
          part.emplace(congest::Partition::build(
              csr, kShardWorkers, congest::PartitionPolicy::Range));
        });
    layers["congest.shard.cut_edges"] =
        static_cast<double>(part->cut_directed_edges());
    return t;
  }

 protected:
  std::uint64_t engine_seed() const { return derive_seed(seed_, 0x7402); }

  Group group(std::size_t k, const congest::RunOutcome& out) const {
    return amplified_group(hosts_[k].name, out, cfg_.repetitions,
                           rounds_per_rep_, has_c4_[k]);
  }

  Vertex n_;
  std::uint64_t seed_;
  detect::EvenCycleConfig cfg_;
  std::vector<Host> hosts_;
  /// Oracle answer per host; setup rebuilds the same hosts every time.
  std::vector<bool> has_c4_;
  std::uint64_t rounds_per_rep_ = 0;
};

/// thm11_forest: classic engine, a C_4-free random tree, every repetition.
/// Its traced run also replays the call on the sharded engine, outside the
/// traced wall, so the congest.shard.* layers are measured here too.
class Thm11Forest final : public Thm11 {
 public:
  Thm11Forest(Size size, std::uint64_t seed)
      : Thm11(size == Size::Full ? 8192 : 256, 2, 0, seed) {}

  void setup(Spans* spans) override {
    const Spans::Scope s(spans, "graph.build");
    Rng rng(derive_seed(seed_, 0x7401));
    hosts_.assign(1, Host{"forest", build::random_tree(n_, rng)});
  }

  TracedResult traced(Spans& spans, Layers& layers) override {
    TracedResult t = Thm11::traced(spans, layers);
    detect::EvenCycleConfig cfg = cfg_;
    cfg.shard.workers = kShardWorkers;
    Thm11Replay sharded;
    const int root = spans.open("shard_replay");
    const congest::RunOutcome out =
        sharded.run(hosts_.front(), cfg, engine_seed(), spans);
    spans.close(root);
    t.replays.push_back({0, cfg.repetitions, {group(0, out)}});
    sharded.report_shard(layers);
    return t;
  }
};

/// thm11_sharded: the sharded engine, planted C_4 vs control, as the
/// nightly sweep runs it.
class Thm11Sharded final : public Thm11 {
 public:
  Thm11Sharded(Size size, std::uint64_t seed)
      : Thm11(size == Size::Full ? 16384 : 512, 1, kShardWorkers, seed) {}

  std::uint32_t kinds() const override { return 2; }

  void setup(Spans* spans) override {
    const Spans::Scope s(spans, "graph.build");
    Rng rng(derive_seed(seed_, 0x7403));
    Graph control = build::random_tree(n_, rng);
    Graph planted = control;
    build::plant_subgraph(planted, build::cycle(4), rng);
    hosts_.clear();
    hosts_.push_back(Host{"planted", std::move(planted)});
    hosts_.push_back(Host{"control", std::move(control)});
  }
};

// ---------------------------------------------------------- cut_traffic --

class CutTraffic final : public Workload {
 public:
  CutTraffic(Size size, std::uint64_t seed)
      : n_(size == Size::Full ? 32768 : 256), seed_(seed) {
    const std::uint32_t count = size == Size::Full ? 8 : 2;
    for (std::uint32_t j = 0; j < count; ++j)
      seeds_.push_back(derive_seed(seed_, 0xc070ULL + j));
    config_.bandwidth = kCutBandwidth;
  }

  void setup(Spans* spans) override {
    const Spans::Scope s(spans, "lowerbound.frame_build");
    frame_.emplace(lb::build_gkn_frame(2, n_));
    owner_ = lb::gkn_ownership(frame_->layout);
  }

  void prepare() override {
    cut_edges_ = comm::count_cut_edges(frame_->graph, owner_);
  }

  CallResult call(std::uint64_t) override {
    CallResult r;
    r.runs = static_cast<std::uint32_t>(seeds_.size());
    const Clock clock;
    const comm::CutCostBatch batch = comm::simulate_across_cut_batch(
        frame_->graph, owner_, config_, factory_, seeds_, 1);
    clock.stop(r);
    for (std::size_t j = 0; j < seeds_.size(); ++j)
      r.outputs.push_back(row(j, batch.rounds[j], batch.crossing_messages[j],
                              batch.bits_alice_to_bob[j],
                              batch.bits_bob_to_alice[j],
                              batch.max_bits_per_round[j], batch.detected[j],
                              batch.completed[j], batch.cut_edges));
    return r;
  }

  TracedResult traced(Spans& spans, Layers& layers) override {
    TracedResult t;
    RoundRows rows;
    obs::EngineTimers timers;
    Outputs outputs;
    std::uint64_t crossing_messages = 0, crossing_bits = 0;
    double simulate = 0;
    const int root = spans.open("traced_pass");
    for (std::size_t j = 0; j < seeds_.size(); ++j) {
      congest::NetworkConfig nc = config_;
      nc.seed = seeds_[j];
      nc.trace = traced_options();
      std::optional<comm::CutCost> cost;
      simulate += in_span(spans, "comm.simulate", [&] {
        cost.emplace(comm::simulate_across_cut(frame_->graph, owner_, nc,
                                               factory_));
      });
      rows.count(cost->outcome.trace);
      timers.merge(cost->outcome.metrics.timers);
      crossing_messages += cost->crossing_messages;
      crossing_bits += cost->total_crossing_bits();
      outputs.push_back(row(j, cost->outcome.metrics.rounds,
                            cost->crossing_messages, cost->bits_alice_to_bob,
                            cost->bits_bob_to_alice, cost->max_bits_per_round,
                            cost->outcome.detected, cost->outcome.completed,
                            cost->cut_edges));
    }
    spans.close(root);
    t.runs = static_cast<std::uint32_t>(seeds_.size());
    t.replays.push_back({0, t.runs, std::move(outputs)});
    t.wall_s = spans.all()[static_cast<std::size_t>(root)].seconds();

    const std::uint32_t runs = t.runs;
    const double compute = seconds(timers.compute_ns);
    const double delivery = seconds(timers.delivery_ns);
    layers["detect.compute_s"] = compute / runs;
    layers["congest.sync.delivery_s"] = delivery / runs;
    // The untraced batch calls of the measured loop, spanned by the caller.
    const double batch = spans.median_s("untraced_call");
    layers["comm.batch_s"] = batch;
    layers["comm.per_seed_s"] = batch / runs;
    layers["comm.cut_edges"] = static_cast<double>(cut_edges_);
    layers["comm.crossing_messages"] =
        static_cast<double>(crossing_messages) / runs;
    layers["comm.crossing_bits"] = static_cast<double>(crossing_bits) / runs;
    rows.report(layers, runs);
    layers["congest.ns_per_message"] =
        rows.messages == 0
            ? 0
            : delivery / static_cast<double>(rows.messages) * 1e9;
    // Each simulate_across_cut call builds its own Network, so the part of
    // the call outside the engine timers holds that build, the cut-edge
    // count and the run's setup; the probe below splits the build out.
    t.terms.push_back({"detect.compute", compute});
    t.terms.push_back({"congest.sync.delivery", delivery});
    t.terms.push_back({"comm.simulate.other", simulate - compute - delivery});
    t.terms.push_back({"glue", spans.self_s("traced_pass")});

    const Vertex n = frame_->graph.num_vertices();
    probe_program_build(spans, layers, factory_, n);
    const double network = in_span(spans, "congest.network_build", [&] {
      const congest::Network net(frame_->graph, config_);
    });
    layers["congest.network_build_s"] = network;
    // Network::run inside each simulate_across_cut call: the call minus
    // the probed Network build.
    const double run = std::max(0.0, simulate / runs - network);
    layers["congest.sync.run_s"] = run;
    layers["congest.sync.other_s"] = run - (compute + delivery) / runs;
    const double node_rounds =
        static_cast<double>(n) * layers["congest.rounds"];
    layers["congest.ns_per_node_round"] =
        node_rounds == 0 ? 0 : run / node_rounds * 1e9;
    return t;
  }

 private:
  Group row(std::size_t j, std::uint64_t rounds, std::uint64_t messages,
            std::uint64_t a2b, std::uint64_t b2a, std::uint64_t max_round,
            bool detected, bool completed, std::uint64_t cut_edges) const {
    Group g;
    g.name = "seed" + std::to_string(j);
    g.add("rounds", rounds);
    g.add("crossing_messages", messages);
    g.add("bits_alice_to_bob", a2b);
    g.add("bits_bob_to_alice", b2a);
    g.add("max_bits_per_round", max_round);
    g.add("detected", detected ? 1 : 0);
    g.add("completed", completed ? 1 : 0);
    g.add("cut_edges", cut_edges);
    g.require(completed, "did not complete");
    g.require(rounds == kTrafficRounds + 1, "round count changed");
    g.require(a2b != 0 && b2a != 0, "no traffic crossed the cut");
    g.require(cut_edges == cut_edges_, "cut edge count changed");
    return g;
  }

  std::uint32_t n_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> seeds_;
  congest::NetworkConfig config_;
  congest::ProgramFactory factory_ =
      comm::random_traffic_program(kTrafficRounds);
  std::optional<lb::GknGraph> frame_;
  std::vector<comm::Owner> owner_;
  std::uint64_t cut_edges_ = 0;
};

// --------------------------------------------------------- async_faulty --

class AsyncFaulty final : public Workload {
 public:
  AsyncFaulty(Size size, std::uint64_t seed)
      : n_(size == Size::Full ? 1024 : 64), seed_(seed) {}

  void setup(Spans* spans) override {
    const Spans::Scope s(spans, "graph.build");
    Rng rng(derive_seed(seed_, 0xa501));
    graph_ = build::random_tree(n_, rng);
  }

  void prepare() override {
    has_c4_ = oracle::has_cycle_of_length(graph_, 4);
    const std::uint64_t budget =
        detect::make_even_cycle_schedule(n_, cfg_).total_rounds() + 1;
    config_.bandwidth = kThm11Bandwidth;
    config_.max_pulses = budget;
    config_.seed = engine_seed();
    config_.faults.drop = 0.1;
    config_.faults.corrupt = 0.02;
    config_.transport = congest::TransportMode::Reliable;
    // The fault-free synchronous run the async verdicts must reproduce.
    congest::NetworkConfig nc;
    nc.bandwidth = kThm11Bandwidth;
    nc.max_rounds = budget;
    reference_ = congest::Network(graph_, nc).run(factory_, engine_seed());
  }

  CallResult call(std::uint64_t) override {
    CallResult r;
    r.runs = 1;
    const Clock clock;
    const congest::AsyncRunOutcome out =
        congest::run_async(graph_, config_, factory_);
    clock.stop(r);
    r.outputs.push_back(group(out));
    return r;
  }

  TracedResult traced(Spans& spans, Layers& layers) override {
    congest::AsyncConfig cfg = config_;
    cfg.trace = traced_options();
    TracedResult t;
    const int root = spans.open("traced_pass");
    std::optional<congest::AsyncRunOutcome> out;
    const double run = in_span(spans, "congest.async.run", [&] {
      out.emplace(congest::run_async(graph_, cfg, factory_));
    });
    RoundRows rows;
    rows.count(out->trace);
    spans.close(root);
    t.runs = 1;
    t.replays.push_back({0, 1, {group(*out)}});
    t.wall_s = spans.all()[static_cast<std::size_t>(root)].seconds();

    const double compute = seconds(out->timers.compute_ns);
    const double sync = seconds(out->timers.delivery_ns);
    const double transport = seconds(out->timers.transport_ns);
    const double queue = run - compute - sync - transport;
    const congest::FaultReport& f = out->faults;
    layers["detect.compute_s"] = compute;
    layers["congest.async.run_s"] = run;
    layers["congest.async.sync_s"] = sync;
    layers["congest.async.transport_s"] = transport;
    layers["congest.async.queue_s"] = queue;
    layers["congest.async.pulses"] = static_cast<double>(out->pulses);
    layers["congest.async.frames"] = static_cast<double>(out->frames);
    layers["congest.async.acks"] = static_cast<double>(out->acks);
    layers["congest.async.retransmissions"] =
        static_cast<double>(f.retransmissions);
    layers["congest.async.frames_dropped"] =
        static_cast<double>(f.frames_dropped);
    layers["congest.async.checksum_rejects"] =
        static_cast<double>(f.checksum_rejects);
    layers["congest.async.duplicate_packets"] =
        static_cast<double>(f.duplicate_packets);
    layers["congest.async.transport_failures"] =
        static_cast<double>(f.transport_failures);
    const double wire = static_cast<double>(
        out->payload_bits + out->overhead_bits + out->transport_bits);
    layers["congest.async.goodput"] =
        wire == 0 ? 0 : static_cast<double>(out->payload_bits) / wire;
    layers["congest.async.retransmit_ratio"] =
        out->frames == 0 ? 0
                         : static_cast<double>(f.retransmissions) /
                               static_cast<double>(out->frames);
    const double sent =
        static_cast<double>(out->frames + f.retransmissions + out->acks);
    layers["congest.async.ns_per_frame"] = sent == 0 ? 0 : run / sent * 1e9;
    rows.report(layers, 1);
    t.terms.push_back({"detect.compute", compute});
    t.terms.push_back({"congest.async.sync", sync});
    t.terms.push_back({"congest.async.transport", transport});
    t.terms.push_back({"congest.async.queue", queue});
    t.terms.push_back({"glue", spans.self_s("traced_pass")});
    probe_program_build(spans, layers, factory_, n_);
    return t;
  }

 private:
  std::uint64_t engine_seed() const { return derive_seed(seed_, 0xa502); }

  Group group(const congest::AsyncRunOutcome& out) const {
    Group g;
    g.name = "async";
    g.add("verdict_hash", verdict_hash(out.verdicts));
    g.add("detected", out.detected ? 1 : 0);
    g.add("completed", out.completed ? 1 : 0);
    g.add("pulses", out.pulses);
    g.add("payload_bits", out.payload_bits);
    g.require(out.completed, "did not complete");
    g.require(out.verdicts == reference_.verdicts,
              "verdicts differ from the fault-free sync run");
    g.require(out.payload_bits == reference_.metrics.total_bits,
              "payload bits differ from the fault-free sync total");
    g.require(out.pulses == reference_.metrics.rounds,
              "pulses differ from the fault-free sync rounds");
    g.require(!out.detected || has_c4_,
              "rejected a C_4-free host (one-sided error violated)");
    return g;
  }

  Vertex n_;
  std::uint64_t seed_;
  detect::EvenCycleConfig cfg_ = thm11_config(1, 0);
  congest::ProgramFactory factory_ = detect::even_cycle_program(cfg_);
  Graph graph_;
  bool has_c4_ = false;
  congest::AsyncConfig config_;
  congest::RunOutcome reference_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "thm11_forest", "thm11_sharded", "cut_traffic", "async_faulty"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Size size,
                                        std::uint64_t seed) {
  if (name == "thm11_forest") return std::make_unique<Thm11Forest>(size, seed);
  if (name == "thm11_sharded")
    return std::make_unique<Thm11Sharded>(size, seed);
  if (name == "cut_traffic") return std::make_unique<CutTraffic>(size, seed);
  if (name == "async_faulty") return std::make_unique<AsyncFaulty>(size, seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
