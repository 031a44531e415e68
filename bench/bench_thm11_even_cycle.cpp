// THM11 — Theorem 1.1 / §6: C_2k detection in O(n^{1-1/(k(k-1))}) rounds.
//
// Three reproduction tables:
//   1. Round complexity vs n for k = 2, 3, 4 (measured on real runs where
//      feasible, schedule elsewhere), with the log-log growth exponent
//      fitted between consecutive sizes against the theorem's
//      1 - 1/(k(k-1)).
//   2. Crossover against the linear-round pipelined baseline: who wins at
//      which n (the paper's headline: even cycles are sublinear, unlike odd
//      cycles, which stay Θ(n) by [DKO14]).
//   3. Detection quality: planted-cycle instances vs cycle-free controls.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "congest/run_batch.hpp"
#include "detect/even_cycle.hpp"
#include "detect/pipelined_cycle.hpp"
#include "graph/builders.hpp"
#include "graph/oracle.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

double fitted_exponent(double r1, double r2, double n1, double n2) {
  return std::log(r2 / r1) / std::log(n2 / n1);
}

/// `--jobs N` fans amplification repetitions over N worker threads
/// (0 = all hardware threads). Verdicts and metrics are identical for
/// every N; only wall-clock changes.
unsigned parse_jobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--jobs") == 0)
      return static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
  return 1;
}

/// `--workers W` runs each live repetition on the sharded superstep engine
/// (congest/shard.hpp; 0 = classic loop). Every reported number is
/// bit-identical for every W — the flag only changes wall-clock — so the
/// model-level baseline comparison stays exact.
unsigned parse_workers(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--workers") == 0)
      return static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csd;
  bench::BenchContext ctx("thm11_even_cycle", argc, argv);
  congest::AmplifyOptions amplify;
  amplify.jobs = parse_jobs(argc, argv);
  congest::ShardSpec shard;
  shard.workers = parse_workers(argc, argv);
  ctx.report().env("jobs", congest::resolve_jobs(amplify.jobs));
  ctx.report().env("workers", shard.workers);

  print_banner(std::cout,
               "THM11: C_2k detection rounds vs n (one repetition)",
               "schedule-exact rounds; fitted exponent vs 1 - 1/(k(k-1))");

  bench::ReportedTable growth(
      ctx, "growth", {"k", "cycle", "n", "rounds", "fitted exp", "theory exp"});
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    detect::EvenCycleConfig cfg;
    cfg.k = k;
    cfg.c_num = 1;
    const double theory = 1.0 - 1.0 / (k * (k - 1.0));
    std::uint64_t prev_rounds = 0, prev_n = 0;
    for (std::uint64_t n = 1u << 10; n <= (1u << 20); n <<= 2) {
      const auto sched = detect::make_even_cycle_schedule(n, cfg);
      growth.row()
          .cell(k)
          .cell("C_" + std::to_string(2 * k))
          .cell(n)
          .cell(sched.total_rounds())
          .cell(prev_n == 0
                    ? std::string("-")
                    : [&] {
                        std::string s(16, '\0');
                        const double e = fitted_exponent(
                            static_cast<double>(prev_rounds),
                            static_cast<double>(sched.total_rounds()),
                            static_cast<double>(prev_n),
                            static_cast<double>(n));
                        s.resize(static_cast<std::size_t>(
                            std::snprintf(s.data(), s.size(), "%.3f", e)));
                        return s;
                      }())
          .cell(theory, 3);
      prev_rounds = sched.total_rounds();
      prev_n = n;
    }
  }
  growth.print(std::cout);

  print_banner(std::cout, "Crossover vs the linear-round baseline",
               "sublinear wins once n is large enough; odd cycles have no "
               "sublinear algorithm [DKO14]");
  bench::ReportedTable crossover(ctx, "crossover",
                                 {"k", "n", "even-cycle rounds",
                                  "baseline rounds (n+2k)", "sublinear wins"});
  for (const std::uint32_t k : {2u, 3u}) {
    detect::EvenCycleConfig cfg;
    cfg.k = k;
    cfg.c_num = 1;
    for (std::uint64_t n = 1u << 8; n <= (1u << 22); n <<= 2) {
      const auto rounds = detect::make_even_cycle_schedule(n, cfg).total_rounds();
      const auto baseline = detect::pipelined_cycle_round_budget(n, 2 * k);
      crossover.row()
          .cell(k)
          .cell(n)
          .cell(rounds)
          .cell(baseline)
          .cell(rounds < baseline);
    }
  }
  crossover.print(std::cout);

  print_banner(std::cout, "Live runs: measured rounds and detection quality",
               "C_4 on sparse hosts (" +
                   std::to_string(congest::resolve_jobs(amplify.jobs)) +
                   " worker thread(s)); every rejection is checked against "
                   "the oracle (one-sided error)");
  bench::ReportedTable quality(ctx, "quality",
                               {"n", "instance", "reps", "executed",
                                "measured rounds/rep", "detected", "oracle"});
  Rng rng(7);
  ctx.seed(7).seed(11).seed(13).seed(17);
  const std::vector<std::uint64_t> live_sizes =
      ctx.smoke() ? std::vector<std::uint64_t>{128, 512}
                  : std::vector<std::uint64_t>{128, 512, 2048};
  // With --trace, every live run below appends one stamped JSONL instance
  // to the trace file. The planted/control C_4 rows share the fit group
  // "even_cycle" (same schedule, so `csd analyze --expect-exponent 0.5`
  // checks Thm 1.1's n^{1-1/(k(k-1))} growth on them); the extremal hard
  // negatives get their own group so their fixed sizes don't pollute the
  // fit.
  const auto write_trace = [&](congest::RunOutcome& outcome,
                               const char* group, const char* instance,
                               std::uint64_t n, std::uint32_t k,
                               std::uint64_t seed) {
    if (!ctx.tracing()) return;
    outcome.trace.set_meta("program", "even_cycle");
    outcome.trace.set_meta("group", group);
    outcome.trace.set_meta("instance", instance);
    outcome.trace.set_meta("n", std::to_string(n));
    outcome.trace.set_meta("k", std::to_string(k));
    outcome.trace.set_meta("seed", std::to_string(seed));
    outcome.trace.write_jsonl(ctx.trace_stream());
  };
  for (const std::uint64_t n : live_sizes) {
    // Planted C_4 in a forest vs a cycle-free control.
    for (const bool planted : {true, false}) {
      Graph g = build::random_tree(static_cast<Vertex>(n), rng);
      if (planted) build::plant_subgraph(g, build::cycle(4), rng);
      detect::EvenCycleConfig cfg;
      cfg.k = 2;
      cfg.c_num = 1;
      cfg.repetitions = ctx.smoke() ? 80 : (n >= 2048 ? 150 : 400);
      cfg.amplify = amplify;
      cfg.shard = shard;
      cfg.trace = ctx.trace_options();
      cfg.telemetry = ctx.telemetry();
      auto outcome = detect::detect_even_cycle(g, cfg, 64, 11);
      quality.row()
          .cell(n)
          .cell(planted ? "forest + planted C4" : "forest (control)")
          .cell(std::uint64_t{cfg.repetitions})
          .cell(outcome.metrics.repetitions_executed)
          .cell(outcome.metrics.rounds / outcome.metrics.repetitions_executed)
          .cell(outcome.detected)
          .cell(oracle::has_cycle_of_length(g, 4));
      write_trace(outcome, "even_cycle",
                  planted ? "planted" : "control", n, 2, 11);
    }
  }
  // The extremal hard negatives: C4-free polarity graph and the girth-8
  // generalized quadrangle (C6-free) at near-extremal density — they
  // exercise the phase-I edge budget without false positives.
  {
    const Graph er = build::polarity_graph(7);  // 57 vertices, C4-free
    detect::EvenCycleConfig cfg;
    cfg.k = 2;
    cfg.repetitions = ctx.smoke() ? 50 : 200;
    cfg.amplify = amplify;
    cfg.shard = shard;
    cfg.trace = ctx.trace_options();
    cfg.telemetry = ctx.telemetry();
    auto outcome = detect::detect_even_cycle(er, cfg, 64, 13);
    quality.row()
        .cell(std::uint64_t{er.num_vertices()})
        .cell("polarity ER_7 (C4-free, dense)")
        .cell(std::uint64_t{cfg.repetitions})
        .cell(outcome.metrics.repetitions_executed)
        .cell(outcome.metrics.rounds / outcome.metrics.repetitions_executed)
        .cell(outcome.detected)
        .cell(false);
    write_trace(outcome, "even_cycle_hard_negative", "polarity_ER7",
                er.num_vertices(), 2, 13);
  }
  {
    const Graph gq = build::generalized_quadrangle_incidence(3);
    detect::EvenCycleConfig cfg;
    cfg.k = 3;
    cfg.repetitions = ctx.smoke() ? 25 : 100;
    cfg.amplify = amplify;
    cfg.shard = shard;
    cfg.trace = ctx.trace_options();
    cfg.telemetry = ctx.telemetry();
    auto outcome = detect::detect_even_cycle(gq, cfg, 64, 17);
    quality.row()
        .cell(std::uint64_t{gq.num_vertices()})
        .cell("GQ(4,3) (C6-free, girth 8)")
        .cell(std::uint64_t{cfg.repetitions})
        .cell(outcome.metrics.repetitions_executed)
        .cell(outcome.metrics.rounds / outcome.metrics.repetitions_executed)
        .cell(outcome.detected)
        .cell(false);
    write_trace(outcome, "even_cycle_hard_negative", "GQ43",
                gq.num_vertices(), 3, 17);
  }
  quality.print(std::cout);

  print_banner(std::cout, "Hot path: engine-timer split on a fixed workload",
               "delivery share of wall time; tools/check_delivery_share.py "
               "gates this against the committed baseline in CI");
  // The workload is the same at --smoke and full scale on purpose: the CI
  // smoke run and the committed baseline must measure identical work. The
  // `rounds` column is model-level and exact; the `_ns` columns are wall
  // clock, which bench_compare.py treats with timing tolerance (and skips
  // outright below its sub-second noise floor).
  bench::ReportedTable hotpath(ctx, "hotpath",
                               {"n", "reps", "rounds", "elapsed_ns",
                                "timers_compute_ns", "timers_delivery_ns"});
  {
    Rng hot_rng(23);
    ctx.seed(23).seed(19);
    // Cycle-free control: no early-out on detection, so every repetition
    // executes and the run is long enough for a stable timer split.
    Graph g = build::random_tree(512, hot_rng);
    detect::EvenCycleConfig cfg;
    cfg.k = 2;
    cfg.c_num = 1;
    // Sized by duration: ~1.3 s on the reference runner, long enough for a
    // stable timer split and to keep the whole --smoke run above
    // bench_compare.py's 500 ms wall floor, below which the CI metrics-
    // overhead gate would only be informational. Idle-round skipping
    // (DESIGN.md §15) made each repetition about 5x cheaper, hence 4x the
    // former 400.
    cfg.repetitions = 1600;
    cfg.amplify = amplify;
    cfg.shard = shard;
    cfg.trace = ctx.trace_options();
    cfg.telemetry = ctx.telemetry();
    cfg.trace.timers = true;  // honored even when the trace itself is off
    const auto start = std::chrono::steady_clock::now();
    auto outcome = detect::detect_even_cycle(g, cfg, 64, 19);
    const auto elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    hotpath.row()
        .cell(std::uint64_t{512})
        .cell(std::uint64_t{cfg.repetitions})
        .cell(outcome.metrics.rounds)
        .cell(elapsed_ns)
        .cell(outcome.metrics.timers.compute_ns)
        .cell(outcome.metrics.timers.delivery_ns);
    write_trace(outcome, "even_cycle_hotpath", "planted_hotpath", 512, 2, 19);
  }
  hotpath.print(std::cout);
  std::cout << "\nExpected: fitted exponents approach the theory column as n\n"
               "grows; detection matches the oracle column on every row.\n";
  return ctx.finish(std::cout);
}
