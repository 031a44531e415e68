#include "tools/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>

#include "congest/async.hpp"
#include "congest/run_batch.hpp"
#include "congest/snapshot.hpp"
#include "congest/supervisor.hpp"
#include "detect/clique_detect.hpp"
#include "detect/clique_listing.hpp"
#include "detect/even_cycle.hpp"
#include "detect/pipelined_cycle.hpp"
#include "detect/tree_detect.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "graph/io.hpp"
#include "graph/oracle.hpp"
#include "lowerbound/fooling.hpp"
#include "lowerbound/gkn.hpp"
#include "lowerbound/hk.hpp"
#include "obs/bench_report.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/codec.hpp"
#include "obs/lb_fit.hpp"
#include "obs/metrics_series.hpp"
#include "obs/metrics_v2.hpp"
#include "obs/round_trace.hpp"
#include "obs/trace_analysis.hpp"
#include "detect/triangle.hpp"
#include "fuzz/fuzzer.hpp"
#include "support/check.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace csd::cli {

namespace {

constexpr const char* kUsage = R"(usage: csd <command> [...]

commands:
  generate <family> [params...] [--out FILE] [--dimacs]
      path N | cycle N | complete N | bipartite A B | grid R C | petersen |
      gnp N P100 SEED | gnm N M SEED | tree N SEED | polarity Q |
      hk K | gkn K N
      (P100 = edge probability in percent; graphs print to stdout unless
       --out is given; --dimacs selects DIMACS output)
  stats <file>
      n, m, max degree, diameter, girth, degeneracy, bipartiteness
  detect <pattern> <file> [--bandwidth B] [--seed S] [--reps R]
         [--json FILE] [--trace FILE] [--per-edge] [--timers]
         [--drop P] [--corrupt P] [--crash NODE:ROUND] [--stall-window W]
         [--checkpoint FILE] [--resume FILE]
         [--metrics-out FILE] [--metrics-period MS] [--blackbox FILE]
         sync only:  [--jobs N] [--workers W] [--shard-counters]
           [--supervised] [--deadline MS] [--round-budget R] [--retries K]
           [--max-reps-per-call M]
         async only: [--transport raw|reliable] [--recover]
           [--rejoin-delay T] [--max-recoveries K] [--checkpoint-at P]
      pattern: cycle L | triangle | clique S | star D
      runs the matching CONGEST detector and the exhaustive oracle. Any
      supervisor flag (--supervised, --deadline, --round-budget, --retries,
      --max-reps-per-call) selects the sync engine; otherwise any of
      --drop, --corrupt, --crash, --transport, --recover, --stall-window,
      --checkpoint, --checkpoint-at, --resume selects the async one;
      otherwise the run is sync. A flag the selected engine does not read
      exits 2. --json writes a csd-bench-v1 report; --trace writes the
      per-round JSONL trace stamped with the detector and the instance for
      `csd analyze` (--per-edge adds per-edge congestion); --timers
      reports engine wall time (compute vs delivery vs transport).
      sync: repetitions run through the run supervisor over --jobs N
      threads (0 = all hardware threads), each run sharded across
      --workers W superstep threads, each owning a contiguous vertex range
      (--shard-counters adds the W-dependent per-worker channel counters);
      everything is bit-identical for every N and W. The supervisor flags
      add a wall-clock deadline, a per-repetition round budget, stall
      reports (--stall-window arms the watchdog), retry-with-reseed and
      pause points; --checkpoint/--resume save and continue
      repetition-granular csd-ckpt-v1 snapshots.
      async: repetitions run one after another under the FaultPlan
      (--drop/--corrupt probabilities in [0,1], --crash repeatable) and
      --transport (default raw); --recover lets crashed nodes rejoin after
      --rejoin-delay ticks (inbox-log replay, --max-recoveries per node);
      --stall-window arms the watchdog; --checkpoint FILE --checkpoint-at
      P saves a snapshot at pulse P and --resume FILE continues it
      bit-identically (one engine run: pass --reps 1 for amplified
      patterns).
      telemetry (csd-metrics-v2): --metrics-out FILE samples every live
      metric into append-only JSONL every --metrics-period ms (default
      250); --blackbox FILE dumps the flight recorder's recent events as
      csd-blackbox-v1 JSON with the first reason that applies of
      fault-violation, stall-report, watchdog-stall, incomplete-run,
      clean-exit (a failed resume dumps resume-reject, a fatal signal
      fatal-signal). Write-only: verdicts, traces and snapshots are
      bit-identical with or without them.
  sweep cycle <L> [--sizes N1,N2,...] [--reps R] [--jobs N] [--seed S]
        [--bandwidth B] [--json FILE] [--trace FILE] [--per-edge]
        [--workers W] [--shard-counters]
        [--metrics-out FILE] [--metrics-period MS] [--blackbox FILE]
      planted-vs-control detection sweep over host sizes (random forest
      hosts, planted C_L vs cycle-free control) on the sync engine,
      repetitions fanned over --jobs threads; reports executed/skipped
      repetitions.
      --json writes one csd-bench-v1 report with a measurement per row;
      --trace concatenates every instance's JSONL trace into FILE, each
      header stamped with (program, n, len, instance, seed) for demuxing
  analyze <trace.jsonl> [--top K] [--cut BOUNDARY] [--chrome FILE]
          [--expect-exponent E] [--tol T] [--group G]
          [--bootstrap R] [--seed S]
      trace-analysis toolchain over a (possibly multi-instance) JSONL
      trace: per-instance phase tables with bit shares, transport counters,
      top-K hottest directed edges (--top, per-edge traces), bits crossing
      the cut {v < BOUNDARY} (--cut), and a log-log least-squares fit of
      per-repetition rounds against meta n for every fit group. --chrome
      exports a Chrome trace-event file (chrome://tracing, Perfetto).
      --expect-exponent fails (exit 1) when a fitted exponent exceeds
      E + T (default tolerance 0.15; --group restricts the check).
      --bootstrap resamples each size's points R times (block bootstrap,
      deterministic in --seed) and prints a 95% CI for every fitted
      exponent; with --expect-exponent the CI's lower edge must also not
      exceed the bound
  postmortem <blackbox.json> [--series FILE] [--last SEC] [--json FILE]
      render a csd-blackbox-v1 flight-recorder dump (and optionally the
      csd-metrics-v2 series that ran alongside it) as a human-readable
      timeline of the events in the last SEC seconds before the dump
      (--last, finite and > 0, default 30) with per-kind event counts and
      final counter values. --json FILE writes the same summary as a
      csd-postmortem-v1 document
  list-cliques <s> <file>
      congested-clique K_s listing; prints count and round cost
  fool <namespace-N> <budget-c>
      runs the Theorem 4.1 adversary against c-bit ID exchange
  fuzz [--seconds N] [--seed S] [--cases N] [--corpus DIR]
      differential fuzzing: random (graph, program, fault plan, schedule)
      cases run through the sync, async-raw, async-reliable and parallel
      (supervised) engines and every cross-engine invariant is checked
      against the VF2 ground truth. Failing cases are delta-debugged to a
      minimal reproducer and written to DIR as replayable JSON. Exit 1 iff
      any divergence was found.
  help
)";

/// Parsed positional arguments + --flag values.
struct Invocation {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  bool has_flag(std::string_view name) const {
    return flag(name).has_value();
  }
  std::optional<std::string> flag(std::string_view name) const {
    for (const auto& [k, v] : flags)
      if (k == name) return v;
    return std::nullopt;
  }
};

Invocation parse(const std::vector<std::string>& args) {
  Invocation inv;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      const std::string name = args[i].substr(2);
      // Boolean flags take no value; value flags consume the next token.
      if (name == "dimacs" || name == "per-edge" || name == "timers" ||
          name == "recover" || name == "supervised" ||
          name == "shard-counters") {
        inv.flags.emplace_back(name, "1");
      } else {
        CSD_CHECK_MSG(i + 1 < args.size(), "flag --" << name
                                                     << " needs a value");
        inv.flags.emplace_back(name, args[++i]);
      }
    } else {
      inv.positional.push_back(args[i]);
    }
  }
  return inv;
}

/// Exit 2 naming the first flag `command` does not read, so a misspelt
/// or misplaced flag never runs silently as its default.
void check_flags(const Invocation& inv, std::string_view command,
                 const std::vector<std::string_view>& reads) {
  for (const auto& [name, value] : inv.flags)
    CSD_CHECK_MSG(std::find(reads.begin(), reads.end(), name) != reads.end(),
                  command << " does not read --" << name);
}

std::uint64_t to_u64(const std::string& s, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  CSD_CHECK_MSG(ec == std::errc{} && ptr == s.data() + s.size(),
                "bad " << what << ": '" << s << "'");
  return value;
}

/// to_u64 for 32-bit quantities (counts, node indices, pattern sizes):
/// values above 4294967295 are an error, never silently truncated.
std::uint32_t to_u32(const std::string& s, const char* what) {
  const std::uint64_t value = to_u64(s, what);
  CSD_CHECK_MSG(value <= std::numeric_limits<std::uint32_t>::max(),
                "bad " << what << ": '" << s << "' exceeds 4294967295");
  return static_cast<std::uint32_t>(value);
}

/// --workers / --shard-counters -> ShardSpec for the synchronous engine
/// (workers 0 and 1 both run one inline worker).
congest::ShardSpec parse_shard(const Invocation& inv) {
  congest::ShardSpec shard;
  shard.workers = to_u32(inv.flag("workers").value_or("0"), "workers");
  shard.channel_counters = inv.has_flag("shard-counters");
  CSD_CHECK_MSG(!shard.channel_counters || shard.workers != 0,
                "--shard-counters needs --workers W");
  return shard;
}

/// Owns the optional csd-metrics-v2 telemetry plane for one CLI command.
/// make_telemetry() returns nullptr when neither --metrics-out nor
/// --blackbox was passed, so the default path keeps the engines'
/// zero-cost contract (every config telemetry pointer stays nullptr and
/// no sampler thread or ring exists).
struct TelemetrySession {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::string metrics_path;
  std::string blackbox_path;
  bool dumped = false;

  ~TelemetrySession();

  obs::Telemetry* get() const { return telemetry.get(); }

  /// Write the flight-recorder dump (csd-blackbox-v1). First trigger wins:
  /// later, lower-priority reasons do not overwrite an earlier dump.
  void dump(const std::string& reason, std::ostream& out) {
    if (blackbox_path.empty() || dumped) return;
    dumped = true;
    if (telemetry->dump_blackbox(blackbox_path, reason))
      out << "blackbox:   " << blackbox_path << " (reason: " << reason
          << ")\n";
    else
      out << "blackbox:   FAILED to write '" << blackbox_path << "'\n";
  }

  /// End-of-command hook: stop the sampler (flushes one final sample) and,
  /// if --blackbox was requested but nothing triggered, write a clean-exit
  /// dump so downstream tooling always finds a file.
  void finish(std::ostream& out) {
    telemetry->stop_sampler();
    if (!metrics_path.empty()) out << "metrics:    " << metrics_path << '\n';
    dump("clean-exit", out);
  }
};

/// The session visible to the fatal-signal handler (at most one CLI
/// command runs at a time; tests drive run() sequentially).
TelemetrySession* g_signal_session = nullptr;

extern "C" void telemetry_signal_handler(int sig) {
  // Best-effort: dumping allocates and is not async-signal-safe, but on a
  // crash path a second fault just loses the dump we were losing anyway.
  TelemetrySession* const session = g_signal_session;
  if (session != nullptr && !session->blackbox_path.empty() &&
      !session->dumped) {
    session->dumped = true;
    session->telemetry->record(obs::EventKind::FatalSignal, 0, 0,
                               static_cast<std::uint64_t>(sig));
    session->telemetry->dump_blackbox(session->blackbox_path,
                                      "fatal-signal");
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

TelemetrySession::~TelemetrySession() {
  if (g_signal_session == this) g_signal_session = nullptr;
}

std::unique_ptr<TelemetrySession> make_telemetry(const Invocation& inv) {
  const auto metrics_path = inv.flag("metrics-out");
  const auto blackbox_path = inv.flag("blackbox");
  if (!metrics_path && !blackbox_path) return nullptr;
  auto session = std::make_unique<TelemetrySession>();
  session->telemetry = std::make_unique<obs::Telemetry>();
  if (metrics_path) {
    session->metrics_path = *metrics_path;
    const std::uint64_t period =
        to_u64(inv.flag("metrics-period").value_or("250"), "metrics-period");
    CSD_CHECK_MSG(period >= 1, "--metrics-period wants milliseconds >= 1");
    session->telemetry->start_sampler(*metrics_path, period);
  }
  if (blackbox_path) {
    session->blackbox_path = *blackbox_path;
    g_signal_session = session.get();
    for (const int sig : {SIGSEGV, SIGABRT, SIGTERM, SIGINT})
      std::signal(sig, telemetry_signal_handler);
  }
  return session;
}

Graph generate(const Invocation& inv) {
  CSD_CHECK_MSG(inv.positional.size() >= 2, "generate needs a family");
  const std::string& family = inv.positional[1];
  const auto text = [&](std::size_t i, const char* what) -> const std::string& {
    CSD_CHECK_MSG(inv.positional.size() > i + 1,
                  "family " << family << " needs " << what);
    return inv.positional[i + 1];
  };
  const auto arg = [&](std::size_t i, const char* what) {
    return to_u64(text(i, what), what);
  };
  const auto arg32 = [&](std::size_t i, const char* what) {
    return to_u32(text(i, what), what);
  };
  if (family == "path") return build::path(arg32(1, "N"));
  if (family == "cycle") return build::cycle(arg32(1, "N"));
  if (family == "complete") return build::complete(arg32(1, "N"));
  if (family == "bipartite")
    return build::complete_bipartite(arg32(1, "A"), arg32(2, "B"));
  if (family == "grid") return build::grid(arg32(1, "R"), arg32(2, "C"));
  if (family == "petersen") return build::petersen();
  if (family == "gnp") {
    Rng rng(arg(3, "SEED"));
    return build::gnp(arg32(1, "N"),
                      static_cast<double>(arg(2, "P100")) / 100.0, rng);
  }
  if (family == "gnm") {
    Rng rng(arg(3, "SEED"));
    return build::gnm(arg32(1, "N"), arg(2, "M"), rng);
  }
  if (family == "tree") {
    Rng rng(arg(2, "SEED"));
    return build::random_tree(arg32(1, "N"), rng);
  }
  if (family == "polarity") return build::polarity_graph(arg32(1, "Q"));
  if (family == "hk") return lb::build_hk(arg32(1, "K")).graph;
  if (family == "gkn")
    return lb::build_gkn_frame(arg32(1, "K"), arg32(2, "N")).graph;
  CSD_CHECK_MSG(false, "unknown family '" << family << "'");
  return Graph{};
}

int cmd_generate(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "generate", {"out", "dimacs"});
  const Graph g = generate(inv);
  const bool dimacs = inv.has_flag("dimacs");
  if (const auto path = inv.flag("out")) {
    io::save(*path, g, dimacs);
    out << "wrote " << g.num_vertices() << " vertices, " << g.num_edges()
        << " edges to " << *path << '\n';
  } else if (dimacs) {
    io::write_dimacs(out, g);
  } else {
    io::write_edge_list(out, g);
  }
  return 0;
}

int cmd_stats(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "stats", {});
  CSD_CHECK_MSG(inv.positional.size() == 2, "stats needs a file");
  const Graph g = io::load(inv.positional[1]);
  out << "vertices:    " << g.num_vertices() << '\n'
      << "edges:       " << g.num_edges() << '\n'
      << "max degree:  " << g.max_degree() << '\n';
  const auto diam = diameter(g);
  out << "diameter:    "
      << (diam == kUnreachable ? std::string("inf (disconnected)")
                               : std::to_string(diam))
      << '\n';
  const auto girth = oracle::girth(g);
  out << "girth:       "
      << (girth == 0 ? std::string("inf (forest)") : std::to_string(girth))
      << '\n'
      << "degeneracy:  " << degeneracy(g) << '\n'
      << "bipartite:   " << (is_bipartite(g) ? "yes" : "no") << '\n';
  return 0;
}

/// `want`, when given, ends the error message (e.g. the accepted range).
double to_double(const std::string& s, const char* what,
                 const char* want = "") {
  double value = 0.0;
  std::size_t pos = 0;
  try {
    value = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  CSD_CHECK_MSG(pos == s.size(), "bad " << what << ": '" << s << "'" << want);
  return value;
}

double to_prob(const std::string& s, const char* what) {
  const char* const want = " (want a number in [0,1])";
  const double value = to_double(s, what, want);
  CSD_CHECK_MSG(value >= 0.0 && value <= 1.0,
                "bad " << what << ": '" << s << "'" << want);
  return value;
}

congest::CrashEvent to_crash(const std::string& s) {
  const auto colon = s.find(':');
  CSD_CHECK_MSG(colon != std::string::npos && colon > 0 &&
                    colon + 1 < s.size(),
                "--crash wants NODE:ROUND, got '" << s << "'");
  return {to_u32(s.substr(0, colon), "crash node"),
          to_u64(s.substr(colon + 1), "crash round")};
}

/// The detector a pattern names, for `detect` and `sweep` alike: factory,
/// round/pulse budget, amplification repetitions, exhaustive-oracle ground
/// truth, the detector name stamped as the trace's `program` (`csd analyze`
/// groups fits by it) and the human-readable algorithm label.
struct PatternProgram {
  congest::ProgramFactory factory;
  std::uint64_t budget = 0;
  std::uint32_t runs = 1;  // deterministic detectors run once
  bool truth = false;
  std::string program;
  std::string algorithm;
};

/// `words` is the pattern as typed: triangle | clique S | cycle L | star D.
PatternProgram select_program(const Graph& g,
                              const std::vector<std::string>& words,
                              std::uint64_t bandwidth, std::uint32_t reps) {
  PatternProgram p;
  const std::string& pattern = words.front();
  const auto size = [&](const char* what) {
    CSD_CHECK_MSG(words.size() == 2,
                  "pattern " << pattern << " needs " << what);
    return to_u32(words[1], what);
  };
  const std::uint64_t n = g.num_vertices();
  if (pattern == "triangle" || pattern == "clique") {
    const std::uint32_t s = pattern == "clique" ? size("S") : 3;
    p.factory = detect::clique_detect_program(s);
    p.budget =
        detect::clique_detect_round_budget(n, g.max_degree(), bandwidth) + 2;
    p.truth = oracle::has_clique(g, s);
    p.program = "clique_detect";
    p.algorithm = "deterministic K_" + std::to_string(s) + " detector";
  } else if (pattern == "cycle") {
    const auto len = size("L");
    if (len >= 4 && len % 2 == 0) {
      detect::EvenCycleConfig ec;
      ec.k = len / 2;
      p.factory = detect::even_cycle_program(ec);
      // A one-vertex host budgets like n = 2, as detect_even_cycle does.
      const std::uint64_t schedule_n = std::max<std::uint64_t>(2, n);
      p.budget =
          detect::make_even_cycle_schedule(schedule_n, ec).total_rounds() + 1;
      p.program = "even_cycle";
      p.algorithm =
          "Theorem 1.1 sublinear C_" + std::to_string(len) + " detector";
    } else {
      p.factory = detect::pipelined_cycle_program(len);
      p.budget = detect::pipelined_cycle_round_budget(n, len) + 1;
      p.program = "pipelined_cycle";
      p.algorithm =
          "pipelined color-coded C_" + std::to_string(len) + " detector";
    }
    p.runs = reps;
    p.truth = oracle::has_cycle_of_length(g, len);
  } else if (pattern == "star") {
    const auto d = size("D");
    const Graph tree = build::star(d);
    p.factory = detect::tree_detect_program(tree);
    p.budget = detect::tree_detect_round_budget(tree) + 1;
    p.runs = reps;
    p.truth = oracle::has_tree(g, tree);
    p.program = "tree_detect";
    p.algorithm = "color-coded star-" + std::to_string(d) + " detector";
  } else {
    CSD_CHECK_MSG(false, "unknown pattern '" << pattern << "'");
  }
  return p;
}

/// FaultPlan construction + validation shared by both engines. `budget`
/// is the round/pulse cap: a crash scheduled at or past it would never
/// fire, which is almost certainly a typo — reject it loudly instead of
/// silently running fault-free.
congest::FaultPlan parse_fault_plan(const Invocation& inv, const Graph& g,
                                    std::uint64_t budget) {
  congest::FaultPlan plan;
  if (const auto p = inv.flag("drop")) plan.drop = to_prob(*p, "drop");
  if (const auto p = inv.flag("corrupt")) plan.corrupt = to_prob(*p, "corrupt");
  for (const auto& [key, value] : inv.flags)
    if (key == "crash") plan.crashes.push_back(to_crash(value));
  for (const auto& ev : plan.crashes) {
    CSD_CHECK_MSG(ev.node < g.num_vertices(),
                  "--crash " << ev.node << ":" << ev.round << " names node "
                             << ev.node << " but the graph has "
                             << g.num_vertices() << " nodes");
    CSD_CHECK_MSG(ev.round < budget,
                  "--crash " << ev.node << ":" << ev.round
                             << " schedules the crash at round " << ev.round
                             << " but the run is capped at " << budget
                             << " rounds — it would never fire");
  }
  return plan;
}

/// Run one engine call. A failed resume (digest mismatch, truncated
/// snapshot) is a prime post-mortem moment: record it and dump before the
/// error propagates.
template <class EngineCall>
auto dump_on_failed_resume(const Invocation& inv, TelemetrySession* session,
                           std::ostream& out, const EngineCall& call) {
  try {
    return call();
  } catch (const CheckFailure&) {
    if (session != nullptr && inv.has_flag("resume")) {
      session->get()->record(obs::EventKind::ResumeReject, 0, 0, 0);
      session->dump("resume-reject", out);
      session->finish(out);
    }
    throw;
  }
}

/// The sync engine, for `detect` and `sweep` alike: the amplified batch
/// through congest::Supervisor, the one driver of amplified runs. Without
/// supervisor flags every setting is at its default, which is the plain
/// amplified run (early exit, no retries); repetition r is seeded
/// repetition_seed(seed, r) and merged under merge_amplified's rules
/// either way.
congest::SupervisedResult run_sync_engine(const Invocation& inv,
                                          const Graph& g,
                                          const PatternProgram& p,
                                          const congest::NetworkConfig& cfg,
                                          unsigned jobs,
                                          TelemetrySession* session,
                                          std::ostream& out) {
  congest::SupervisorConfig sup;
  sup.jobs = jobs;
  sup.deadline_ms = to_u64(inv.flag("deadline").value_or("0"), "deadline");
  sup.round_budget =
      to_u64(inv.flag("round-budget").value_or("0"), "round-budget");
  sup.max_retries = to_u32(inv.flag("retries").value_or("0"), "retries");
  sup.max_reps_per_call = to_u32(
      inv.flag("max-reps-per-call").value_or("0"), "max-reps-per-call");
  // A paused slice is only resumable from its checkpoint file.
  CSD_CHECK_MSG(sup.max_reps_per_call == 0 || inv.has_flag("checkpoint"),
                "--max-reps-per-call needs --checkpoint FILE");
  const congest::Supervisor supervisor(g, cfg, sup);
  const auto resume_path = inv.flag("resume");
  return dump_on_failed_resume(inv, session, out, [&] {
    return resume_path
               ? supervisor.resume(p.factory, p.runs,
                                   congest::load_snapshot(*resume_path))
               : supervisor.run(p.factory, p.runs);
  });
}

/// What the `detect` report prints, filled by one function per engine: the
/// outcome both engines share and the pieces only one of them writes.
struct DetectReport {
  bool detected = false;
  bool completed = true;
  congest::FaultReport faults{};
  std::vector<congest::StallReport> stalls{};
  obs::EngineTimers timers{};
  obs::RunTrace trace{};
  std::shared_ptr<const congest::Snapshot> checkpoint{};
  std::string engine{};      // the engine line
  std::string accounting{};  // the lines after the oracle line
  bool always_report_faults = false;
  std::string miss_note{};        // when the run misses a present pattern
  std::string checkpoint_note{};  // the checkpoint line's parenthetical
  // Trace header keys written after `seed`; --json params and values.
  std::vector<std::pair<std::string, std::string>> trace_meta{};
  std::vector<std::pair<std::string, obs::Json>> params{}, values{};
};

/// The sync engine's side of the report.
DetectReport sync_report(congest::SupervisedResult result, unsigned jobs,
                         const congest::ShardSpec& shard) {
  congest::RunOutcome& outcome = result.outcome;
  const congest::RunMetrics& metrics = outcome.metrics;
  DetectReport r{.detected = outcome.detected,
                 .completed = outcome.completed,
                 .faults = std::move(outcome.faults),
                 .stalls = std::move(result.stalls),
                 .timers = metrics.timers,
                 .trace = std::move(outcome.trace),
                 .checkpoint = result.checkpoint};
  std::ostringstream os;
  os << "sync, " << congest::resolve_jobs(jobs) << " worker thread(s)";
  if (shard.workers != 0)
    os << ", sharded (" << shard.workers << " worker(s), range partition)";
  r.engine = os.str();
  os.str("");
  os << "rounds:     " << metrics.rounds << '\n'
     << "reps:       " << metrics.repetitions_executed << " executed, "
     << metrics.repetitions_skipped << " skipped (of " << result.planned
     << " planned)\n"
     << "retries:    " << result.retries_used << '\n';
  if (result.deadline_hit) os << "deadline:   HIT (wall clock expired)\n";
  if (result.paused)
    os << "paused:     yes — max-reps-per-call cut scheduling; resume "
          "from the checkpoint\n";
  r.accounting = os.str();
  r.miss_note = "randomized detectors are one-sided; raise --reps";
  r.checkpoint_note =
      r.checkpoint == nullptr
          ? "no repetition ran"
          : "after repetition " +
                std::to_string(r.checkpoint->amplified.next_repetition) +
                " of " + std::to_string(result.planned);
  r.trace_meta = {{"reps", std::to_string(metrics.repetitions_executed)}};
  r.params = {{"engine", "sync"}};
  r.values = {{"rounds", metrics.rounds},
              {"messages", metrics.messages},
              {"total_bits", metrics.total_bits},
              {"max_message_bits", metrics.max_message_bits},
              {"repetitions_executed", metrics.repetitions_executed},
              {"repetitions_skipped", metrics.repetitions_skipped},
              {"retries_used", result.retries_used},
              {"stalled_repetitions",
               static_cast<std::uint64_t>(r.stalls.size())},
              {"deadline_hit", result.deadline_hit},
              {"paused", result.paused}};
  return r;
}

/// The async engine and its side of the report: the repetitions run one
/// after another through run_async (or resume_async). Repetition r is
/// seeded repetition_seed(seed, r) as on the sync engine, at every --reps,
/// so a clean (--drop 0) async run reproduces the sync run bit for bit:
/// same verdict, pulses = rounds of a single run, payload bits = total
/// bits. Pulses are the longest repetition's; bits, faults, timers and
/// traces add up in repetition order.
DetectReport run_async_engine(const Invocation& inv, const Graph& g,
                              const PatternProgram& p,
                              congest::AsyncConfig cfg, std::uint64_t seed,
                              TelemetrySession* session, std::ostream& out) {
  const std::string transport = inv.flag("transport").value_or("raw");
  CSD_CHECK_MSG(transport == "raw" || transport == "reliable",
                "--transport wants raw|reliable, got '" << transport << "'");
  cfg.transport = transport == "reliable" ? congest::TransportMode::Reliable
                                          : congest::TransportMode::Raw;
  cfg.recovery.enabled = inv.has_flag("recover");
  if (const auto d = inv.flag("rejoin-delay"))
    cfg.recovery.rejoin_delay = to_u64(*d, "rejoin-delay");
  if (const auto k = inv.flag("max-recoveries"))
    cfg.recovery.max_recoveries = to_u32(*k, "max-recoveries");

  // Checkpoint/resume freeze or continue ONE engine run; amplified
  // patterns must pin the repetition with --reps 1.
  const auto ckpt_path = inv.flag("checkpoint");
  const auto resume_path = inv.flag("resume");
  if (const auto at = inv.flag("checkpoint-at")) {
    cfg.checkpoint_at_pulse = to_u64(*at, "checkpoint-at");
    CSD_CHECK_MSG(cfg.checkpoint_at_pulse >= 1,
                  "--checkpoint-at wants a pulse >= 1");
  }
  CSD_CHECK_MSG(!ckpt_path.has_value() || cfg.checkpoint_at_pulse != 0,
                "--checkpoint needs --checkpoint-at PULSE");
  CSD_CHECK_MSG(cfg.checkpoint_at_pulse == 0 || ckpt_path.has_value(),
                "--checkpoint-at needs --checkpoint FILE");
  CSD_CHECK_MSG((!ckpt_path && !resume_path) || p.runs == 1,
                "checkpoint/resume work on a single engine run; pass --reps 1"
                " (or use --supervised for repetition-granular checkpoints)");

  DetectReport r;
  std::uint64_t pulses = 0, payload_bits = 0, transport_bits = 0;
  for (std::uint32_t rep = 0; rep < p.runs; ++rep) {
    cfg.seed = congest::repetition_seed(seed, rep);
    congest::AsyncRunOutcome outcome =
        dump_on_failed_resume(inv, session, out, [&] {
          return resume_path
                     ? congest::resume_async(
                           g, cfg, p.factory,
                           congest::load_snapshot(*resume_path))
                     : congest::run_async(g, cfg, p.factory);
        });
    r.detected |= outcome.detected;
    r.completed &= outcome.completed;
    pulses = std::max(pulses, outcome.pulses);
    payload_bits += outcome.payload_bits;
    transport_bits += outcome.transport_bits;
    r.timers.merge(outcome.timers);
    r.trace.append(outcome.trace);
    r.faults.merge(std::move(outcome.faults));
    r.checkpoint = outcome.checkpoint;
  }
  r.engine = "async, " + transport + " transport, " +
             std::to_string(p.runs) + (p.runs == 1 ? " run" : " runs") +
             (cfg.recovery.enabled ? ", crash recovery on" : "");
  r.accounting = std::string("completed:  ") +
                 (r.completed ? "yes" : "no (stalls or crashes)") +
                 "\npulses:     " + std::to_string(pulses) +
                 "\npayload bits:   " + std::to_string(payload_bits) +
                 "\ntransport bits: " + std::to_string(transport_bits) + '\n';
  r.always_report_faults = true;
  r.miss_note = "faults can mask the pattern; try --transport reliable";
  r.checkpoint_note =
      (r.checkpoint == nullptr ? "run ended before pulse " : "pulse ") +
      std::to_string(cfg.checkpoint_at_pulse);
  r.params = {{"engine", "async"}, {"transport", transport}};
  r.trace_meta = {{"reps", std::to_string(p.runs)},
                  {"engine", "async"},
                  {"transport", transport}};
  r.values = {{"completed", r.completed},
              {"pulses", pulses},
              {"payload_bits", payload_bits},
              {"transport_bits", transport_bits},
              {"frames_dropped", r.faults.frames_dropped},
              {"frames_corrupted", r.faults.frames_corrupted},
              {"retransmissions", r.faults.retransmissions}};
  return r;
}

// `detect`'s flags, each listed once by the engines that read it. The
// engine rule: any supervisor flag selects sync; otherwise any fault flag
// or async-selecting flag selects async; otherwise the run is sync.
using FlagSet = std::span<const std::string_view>;
constexpr std::string_view kReportFlags[] = {  // both engines
    "bandwidth", "seed", "reps", "json", "trace", "per-edge", "timers",
    "metrics-out", "metrics-period", "blackbox"};
constexpr std::string_view kFaultFlags[] = {  // both engines
    "drop", "corrupt", "crash", "stall-window", "checkpoint", "resume"};
constexpr std::string_view kSupervisorFlags[] = {  // sync only
    "supervised", "deadline", "round-budget", "retries", "max-reps-per-call"};
constexpr std::string_view kShardFlags[] = {  // sync only
    "jobs", "workers", "shard-counters"};
constexpr std::string_view kAsyncSelectingFlags[] = {  // async only
    "transport", "recover", "checkpoint-at"};
constexpr std::string_view kRecoveryFlags[] = {  // async only
    "rejoin-delay", "max-recoveries"};

bool any_flag(const Invocation& inv, FlagSet names) {
  return std::any_of(names.begin(), names.end(),
                     [&](std::string_view name) { return inv.has_flag(name); });
}

bool selects_async(const Invocation& inv) {
  return !any_flag(inv, kSupervisorFlags) &&
         (any_flag(inv, kFaultFlags) || any_flag(inv, kAsyncSelectingFlags));
}

/// The flags `detect` reads on the engine selects_async picked.
std::vector<std::string_view> detect_flags(bool async) {
  std::vector<std::string_view> reads;
  for (const FlagSet set :
       {FlagSet(kReportFlags), FlagSet(kFaultFlags),
        async ? FlagSet(kAsyncSelectingFlags) : FlagSet(kSupervisorFlags),
        async ? FlagSet(kRecoveryFlags) : FlagSet(kShardFlags)})
    reads.insert(reads.end(), set.begin(), set.end());
  return reads;
}

int cmd_detect(const Invocation& inv, std::ostream& out) {
  CSD_CHECK_MSG(inv.positional.size() >= 3,
                "detect needs a pattern and a file");
  const bool async = selects_async(inv);
  check_flags(inv, async ? "detect on the async engine"
                         : "detect on the sync engine",
              detect_flags(async));

  const obs::WallTimer timer;
  const std::uint64_t bandwidth =
      to_u64(inv.flag("bandwidth").value_or("64"), "bandwidth");
  const std::uint64_t seed = to_u64(inv.flag("seed").value_or("1"), "seed");
  const auto reps = to_u32(inv.flag("reps").value_or("400"), "reps");
  const auto jobs = to_u32(inv.flag("jobs").value_or("1"), "jobs");
  const congest::ShardSpec shard = parse_shard(inv);
  const std::uint64_t stall_window =
      to_u64(inv.flag("stall-window").value_or("0"), "stall-window");
  const auto trace_path = inv.flag("trace");
  // No per-node rows: `csd analyze` reads none, and they cost O(rounds * n).
  obs::TraceOptions trace_opts;
  trace_opts.enabled = trace_path.has_value();
  trace_opts.per_node = false;
  trace_opts.per_edge = inv.has_flag("per-edge");
  trace_opts.timers = inv.has_flag("timers");

  // The file is the last positional; the pattern words sit in between.
  const Graph g = io::load(inv.positional.back());
  CSD_CHECK_MSG(g.num_vertices() > 0,
                "graph '" << inv.positional.back()
                          << "' has no vertices — nothing to run on");
  CSD_CHECK_MSG(reps >= 1, "--reps must be at least 1");
  const PatternProgram p = select_program(
      g, {inv.positional.begin() + 1, inv.positional.end() - 1}, bandwidth,
      reps);
  const congest::FaultPlan faults = parse_fault_plan(inv, g, p.budget);
  const auto session = make_telemetry(inv);
  obs::Telemetry* const telemetry = session ? session->get() : nullptr;

  DetectReport r;
  if (async) {
    congest::AsyncConfig cfg;
    cfg.bandwidth = bandwidth;
    cfg.max_pulses = p.budget;
    cfg.faults = faults;
    cfg.trace = trace_opts;
    cfg.stall_window = stall_window;
    cfg.telemetry = telemetry;
    r = run_async_engine(inv, g, p, cfg, seed, session.get(), out);
  } else {
    congest::NetworkConfig cfg;
    cfg.bandwidth = bandwidth;
    cfg.max_rounds = p.budget;
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.trace = trace_opts;
    cfg.stall_window = stall_window;
    cfg.shard = shard;
    cfg.telemetry = telemetry;
    r = sync_report(run_sync_engine(inv, g, p, cfg, jobs, session.get(), out),
                    jobs, shard);
  }

  out << "algorithm:  " << p.algorithm << '\n'
      << "engine:     " << r.engine << '\n';
  if (const auto resume_path = inv.flag("resume"))
    out << "resumed:    " << *resume_path << '\n';
  out << "verdict:    "
      << (r.detected ? "REJECT (pattern found)" : "accept") << '\n'
      << "oracle:     " << (p.truth ? "pattern present" : "pattern absent")
      << '\n'
      << r.accounting;
  if (!r.stalls.empty()) {
    out << "stalls:     " << r.stalls.size() << '\n';
    for (const auto& s : r.stalls) {
      out << "  rep " << s.repetition << " (seed " << s.seed << "): rounds "
          << s.rounds << ", " << s.stalled_nodes << " stalled node(s)"
          << (s.watchdog ? " [watchdog]" : "")
          << (s.over_budget ? " [over-budget]" : "")
          << (s.incomplete ? " [incomplete]" : "") << '\n';
      // The shard_last_progress_w<N> rows (present with --workers W
      // --shard-counters) point at the worker that stopped advancing.
      out << "      watchdog_stalls = " << (s.watchdog ? 1 : 0) << '\n';
      for (const auto& [name, value] : s.counters.entries())
        if (name.rfind("shard_last_progress", 0) == 0)
          out << "      " << name << " = " << value << '\n';
    }
  }
  if (r.always_report_faults || !r.faults.clean())
    out << "--- fault report ---\n" << congest::summarize(r.faults);
  if (r.detected && !p.truth) out << "WARNING: false positive (model bug?)\n";
  if (!r.detected && p.truth) out << "note: " << r.miss_note << '\n';
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000000.0;
  };
  if (r.timers.enabled)
    out << "timers:     compute " << ms(r.timers.compute_ns)
        << " ms, delivery " << ms(r.timers.delivery_ns) << " ms, transport "
        << ms(r.timers.transport_ns) << " ms\n";
  if (const auto ckpt_path = inv.flag("checkpoint")) {
    if (r.checkpoint) congest::save_snapshot(*ckpt_path, *r.checkpoint);
    out << "checkpoint: " << (r.checkpoint ? *ckpt_path : "not captured")
        << " (" << r.checkpoint_note << ")\n";
  }
  if (trace_path) {
    // Stamp the instance parameters into the header so `csd analyze` can
    // demux and fit without a side channel.
    r.trace.set_meta("program", p.program);
    r.trace.set_meta("n", std::to_string(g.num_vertices()));
    r.trace.set_meta("m", std::to_string(g.num_edges()));
    r.trace.set_meta("bandwidth", std::to_string(bandwidth));
    r.trace.set_meta("seed", std::to_string(seed));
    for (const auto& [key, value] : r.trace_meta) r.trace.set_meta(key, value);
    std::ofstream os(*trace_path);
    CSD_CHECK_MSG(os.good(), "cannot write trace file '" << *trace_path
                                                         << "'");
    r.trace.write_jsonl(os);
    out << "trace:      " << *trace_path << " (" << r.trace.segments()
        << " segment(s))\n";
  }
  if (session) {
    if (!r.faults.violations.empty())
      session->dump("fault-violation", out);
    else if (!r.stalls.empty())
      session->dump("stall-report", out);
    else if (r.faults.watchdog_stalls != 0)
      session->dump("watchdog-stall", out);
    else if (!r.completed)
      session->dump("incomplete-run", out);
    session->finish(out);
  }
  if (const auto json_path = inv.flag("json")) {
    obs::BenchReport report("csd_detect");
    report.param("pattern", inv.positional[1])
        .param("bandwidth", bandwidth)
        .param("reps", reps)
        .param("n", g.num_vertices())
        .param("m", g.num_edges());
    for (auto& [key, value] : r.params) report.param(key, std::move(value));
    report.seed(seed);
    auto& m = report.measurement("detect");
    m.value("verdict", r.detected ? "reject" : "accept")
        .value("oracle", p.truth);
    for (auto& [key, value] : r.values) m.value(key, std::move(value));
    report.env("jobs", congest::resolve_jobs(jobs));
    report.env("workers", shard.workers);
    report.set_wall_clock_ms(timer.elapsed_ms());
    report.write(*json_path);
    out << "json:       " << *json_path << '\n';
  }
  return 0;
}

std::vector<std::uint64_t> parse_sizes(const std::string& csv) {
  std::vector<std::uint64_t> sizes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) sizes.push_back(to_u32(item, "sizes"));
  CSD_CHECK_MSG(!sizes.empty(), "--sizes wants N1,N2,...");
  return sizes;
}

/// Planted-vs-control C_L sweep over host sizes. For each n, a random
/// labelled tree is the cycle-free control instance and the same tree with a
/// planted C_L is the positive instance; both run through the sync engine
/// with repetitions fanned across `--jobs` worker threads. The
/// executed/skipped columns make the one-sided early exit visible: positive
/// instances stop at the first rejecting repetition, controls run them all.
int cmd_sweep(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "sweep",
              {"sizes", "reps", "jobs", "seed", "bandwidth", "json", "trace",
               "per-edge", "workers", "shard-counters", "metrics-out",
               "metrics-period", "blackbox"});
  CSD_CHECK_MSG(inv.positional.size() == 3 && inv.positional[1] == "cycle",
                "sweep cycle L [--sizes N1,N2,...]");
  const auto len = to_u32(inv.positional[2], "L");
  CSD_CHECK_MSG(len >= 3, "cycle length must be >= 3");
  const auto sizes =
      parse_sizes(inv.flag("sizes").value_or("32,64,128"));
  const auto reps = to_u32(inv.flag("reps").value_or("64"), "reps");
  CSD_CHECK_MSG(reps >= 1, "--reps must be at least 1");
  const auto jobs = to_u32(inv.flag("jobs").value_or("1"), "jobs");
  const std::uint64_t seed = to_u64(inv.flag("seed").value_or("1"), "seed");
  const std::uint64_t bandwidth =
      to_u64(inv.flag("bandwidth").value_or("64"), "bandwidth");
  const auto json_path = inv.flag("json");
  const auto trace_path = inv.flag("trace");
  const obs::WallTimer timer;
  congest::NetworkConfig cfg;
  cfg.bandwidth = bandwidth;
  cfg.seed = seed;
  cfg.trace.enabled = trace_path.has_value();
  cfg.trace.per_node = false;  // as in `csd detect`
  cfg.trace.per_edge = inv.has_flag("per-edge");
  std::ofstream trace_os;
  if (trace_path) {
    trace_os.open(*trace_path);
    CSD_CHECK_MSG(trace_os.good(), "cannot write trace file '" << *trace_path
                                                               << "'");
  }
  obs::BenchReport report("csd_sweep");
  report.param("len", len)
      .param("reps", reps)
      .param("bandwidth", bandwidth)
      .param("sizes", inv.flag("sizes").value_or("32,64,128"));
  cfg.shard = parse_shard(inv);
  const auto session = make_telemetry(inv);
  cfg.telemetry = session ? session->get() : nullptr;
  report.seed(seed);
  report.env("jobs", congest::resolve_jobs(jobs));
  report.env("workers", cfg.shard.workers);

  out << "C_" << len << " sweep: " << reps << " repetitions per instance, "
      << congest::resolve_jobs(jobs) << " worker thread(s)";
  if (cfg.shard.workers != 0)
    out << ", sharded engine (" << cfg.shard.workers
        << " worker(s), range partition)";
  out << '\n';
  Table table({"n", "instance", "verdict", "oracle", "executed", "skipped",
               "rounds", "max msg bits"});
  for (const std::uint64_t n : sizes) {
    CSD_CHECK_MSG(n >= len, "host size " << n << " smaller than cycle");
    Rng host_rng(derive_seed(seed, 0x403ULL + n));
    const Graph control = build::random_tree(static_cast<Vertex>(n), host_rng);
    Graph planted = control;
    build::plant_subgraph(planted, build::cycle(static_cast<Vertex>(len)),
                          host_rng);
    for (const bool positive : {true, false}) {
      const Graph& g = positive ? planted : control;
      const PatternProgram p = select_program(
          g, {inv.positional.begin() + 1, inv.positional.end()}, bandwidth,
          reps);
      cfg.max_rounds = p.budget;
      congest::RunOutcome outcome =
          run_sync_engine(inv, g, p, cfg, jobs, session.get(), out).outcome;
      table.row()
          .cell(n)
          .cell(positive ? "planted" : "control")
          .cell(outcome.detected ? "REJECT" : "accept")
          .cell(p.truth)
          .cell(outcome.metrics.repetitions_executed)
          .cell(outcome.metrics.repetitions_skipped)
          .cell(outcome.metrics.rounds)
          .cell(outcome.metrics.max_message_bits);
      if (outcome.detected && !p.truth)
        out << "WARNING: false positive at n=" << n << " (model bug?)\n";
      if (trace_path) {
        // One header per instance, stamped so downstream analysis can demux
        // the concatenated stream and fit rounds-vs-n per group.
        outcome.trace.set_meta("program", p.program);
        outcome.trace.set_meta("len", std::to_string(len));
        outcome.trace.set_meta("n", std::to_string(n));
        outcome.trace.set_meta("instance", positive ? "planted" : "control");
        outcome.trace.set_meta("seed", std::to_string(seed));
        outcome.trace.write_jsonl(trace_os);
      }
      std::string name = "n";
      name += std::to_string(n);
      name += positive ? "/planted" : "/control";
      report.measurement(name)
          .value("verdict", outcome.detected ? "reject" : "accept")
          .value("oracle", p.truth)
          .value("repetitions_executed", outcome.metrics.repetitions_executed)
          .value("repetitions_skipped", outcome.metrics.repetitions_skipped)
          .value("rounds", outcome.metrics.rounds)
          .value("total_bits", outcome.metrics.total_bits)
          .value("max_message_bits", outcome.metrics.max_message_bits);
    }
  }
  table.print(out);
  if (session) session->finish(out);
  if (trace_path) out << "trace:      " << *trace_path << '\n';
  if (json_path) {
    report.set_wall_clock_ms(timer.elapsed_ms());
    report.write(*json_path);
    out << "json:       " << *json_path << '\n';
  }
  return 0;
}

/// `csd postmortem`: render a csd-blackbox-v1 dump (+ optional
/// csd-metrics-v2 series) as a last-N-seconds timeline, and emit the
/// csd-postmortem-v1 summary (--json).
int cmd_postmortem(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "postmortem", {"series", "last", "json"});
  CSD_CHECK_MSG(inv.positional.size() == 2,
                "postmortem needs a blackbox file");
  std::ifstream is(inv.positional[1]);
  CSD_CHECK_MSG(is.good(),
                "cannot read blackbox file '" << inv.positional[1] << "'");
  std::stringstream buffer;
  buffer << is.rdbuf();
  const auto dump = obs::decode<obs::BlackboxDump>(
      obs::Json::parse(buffer.str()), obs::blackbox_fields);

  const double last_sec = to_double(inv.flag("last").value_or("30"), "last");
  CSD_CHECK_MSG(std::isfinite(last_sec) && last_sec > 0,
                "--last wants a finite number of seconds > 0");
  // The window holds the events at or after the cutoff; one that reaches
  // back past the dump's epoch holds them all.
  const double window_ms = last_sec * 1000.0;
  const std::uint64_t cutoff =
      window_ms >= static_cast<double>(dump.epoch_ms)
          ? 0
          : dump.epoch_ms - static_cast<std::uint64_t>(window_ms);

  std::map<std::string, std::uint64_t> counts;
  std::uint64_t in_window = 0;
  for (const obs::FlightEvent& event : dump.events) {
    ++counts[obs::to_string(event.kind)];
    if (event.epoch_ms >= cutoff) ++in_window;
  }

  std::uint64_t series_samples = 0, series_span_ms = 0;
  if (const auto series_path = inv.flag("series")) {
    std::ifstream ss(*series_path);
    CSD_CHECK_MSG(ss.good(),
                  "cannot read series file '" << *series_path << "'");
    const obs::MetricsSeries series = obs::parse_metrics_series(ss);
    series_samples = series.size();
    // Latest minus earliest: the wall clock may step back between samples.
    const auto [lo, hi] = std::minmax_element(
        series.begin(), series.end(),
        [](const auto& a, const auto& b) { return a.epoch_ms < b.epoch_ms; });
    if (lo != series.end()) series_span_ms = hi->epoch_ms - lo->epoch_ms;
  }

  if (const auto json_path = inv.flag("json")) {
    obs::Json doc = obs::Json::object();
    doc.set("schema", obs::Json("csd-postmortem-v1"));
    doc.set("reason", obs::Json(dump.reason));
    doc.set("epoch_ms", obs::Json(dump.epoch_ms));
    doc.set("events_recorded", obs::Json(dump.events_recorded));
    doc.set("events_kept", obs::Json(dump.events.size()));
    doc.set("torn", obs::Json(dump.torn));
    doc.set("window_seconds", obs::Json(last_sec));
    doc.set("events_in_window", obs::Json(in_window));
    obs::Json counts_json = obs::Json::object();
    for (const auto& [kind, count] : counts)
      counts_json.set(kind, obs::Json(count));
    doc.set("event_counts", std::move(counts_json));
    obs::Json counters_json = obs::Json::object();
    for (const auto& [name, value] : dump.metrics.counters)
      counters_json.set(name, obs::Json(value));
    doc.set("counters", std::move(counters_json));
    doc.set("series_samples", obs::Json(series_samples));
    doc.set("series_span_ms", obs::Json(series_span_ms));
    std::ofstream os(*json_path);
    CSD_CHECK_MSG(os.good(), "cannot write '" << *json_path << "'");
    os << doc.dump(2) << '\n';
    out << "json:       " << *json_path << '\n';
  }

  out << "reason:     " << dump.reason << '\n'
      << "events:     " << dump.events_recorded << " recorded, "
      << dump.events.size() << " kept, " << dump.torn << " torn\n";
  if (!counts.empty()) {
    out << "event counts:\n";
    for (const auto& [kind, count] : counts)
      out << "  " << kind << "  " << count << '\n';
  }
  if (!dump.metrics.counters.empty()) {
    out << "final counters:\n";
    for (const auto& [name, value] : dump.metrics.counters)
      out << "  " << name << " = " << value << '\n';
  }
  if (inv.flag("series"))
    out << "series:     " << series_samples << " sample(s) spanning "
        << series_span_ms << " ms\n";
  out << "timeline (last " << last_sec << "s, " << in_window
      << " event(s)):\n";
  for (const obs::FlightEvent& event : dump.events) {
    if (event.epoch_ms < cutoff) continue;
    // Offset relative to the dump instant, millisecond precision.
    const std::int64_t rel = static_cast<std::int64_t>(event.epoch_ms) -
                             static_cast<std::int64_t>(dump.epoch_ms);
    const std::int64_t mag = rel < 0 ? -rel : rel;
    out << "  [" << (rel < 0 ? '-' : '+') << mag / 1000 << '.'
        << static_cast<char>('0' + (mag / 100) % 10)
        << static_cast<char>('0' + (mag / 10) % 10)
        << static_cast<char>('0' + mag % 10) << "s] "
        << obs::to_string(event.kind) << "  actor=" << event.actor
        << " at=" << event.at << " value=" << event.value << '\n';
  }
  return 0;
}

/// `csd analyze`: the congestion/phase/fit report over a JSONL trace.
/// Exit 1 iff --expect-exponent is given and some fitted group exceeds it.
int cmd_analyze(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "analyze",
              {"top", "cut", "chrome", "expect-exponent", "tol", "group",
               "bootstrap", "seed"});
  CSD_CHECK_MSG(inv.positional.size() == 2, "analyze needs a trace file");
  std::ifstream is(inv.positional[1]);
  CSD_CHECK_MSG(is.good(),
                "cannot read trace file '" << inv.positional[1] << "'");
  const auto instances = obs::parse_trace_jsonl(is);
  CSD_CHECK_MSG(!instances.empty(), "trace file holds no instances");
  const auto top_k = to_u64(inv.flag("top").value_or("5"), "top");
  const auto cut = inv.flag("cut");
  const auto group_filter = inv.flag("group");

  out << instances.size() << " instance(s) in " << inv.positional[1] << "\n";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const obs::TraceInstance& instance = instances[i];
    const obs::TraceCounts counts = obs::trace_counts(instance);
    out << "\n--- " << instance.label(i) << " ---\n"
        << "nodes " << instance.nodes << ", rounds " << counts.rounds << " ("
        << counts.segments << " segment(s), "
        << instance.rounds_per_segment() << " rounds/rep), bits "
        << counts.total_bits << '\n';
    if (!counts.phases.empty()) {
      Table table({"phase", "rounds", "messages", "bits", "bit share"});
      std::uint64_t attributed = 0;
      for (const auto& phase : counts.phases) {
        const double share =
            counts.total_bits == 0
                ? 0.0
                : 100.0 * static_cast<double>(phase.bits) /
                      static_cast<double>(counts.total_bits);
        std::ostringstream share_os;
        share_os.precision(1);
        share_os << std::fixed << share << '%';
        table.row()
            .cell(phase.name)
            .cell(phase.rounds)
            .cell(phase.messages)
            .cell(phase.bits)
            .cell(share_os.str());
        attributed += phase.bits;
      }
      table.print(out);
      if (attributed < counts.total_bits)
        out << "unattributed: " << counts.total_bits - attributed
            << " bits\n";
    }
    if (!instance.counters.empty()) {
      out << "counters:";
      for (const auto& [name, value] : instance.counters)
        out << ' ' << name << '=' << value;
      out << '\n';
    }
    if (instance.per_edge && top_k > 0) {
      const auto top = obs::top_edges_by_bits(instance, top_k);
      out << "hottest directed edges:\n";
      for (const auto& edge : top)
        out << "  " << edge.src << " -> " << edge.dst << ": " << edge.bits
            << " bits in " << edge.messages << " message(s)\n";
    }
    if (cut && instance.per_edge) {
      const std::uint64_t boundary = to_u64(*cut, "cut");
      out << "cut {v < " << boundary << "}: "
          << obs::cut_traffic_bits(instance, boundary)
          << " bits cross in either direction\n";
    }
  }

  if (const auto chrome_path = inv.flag("chrome")) {
    std::ofstream os(*chrome_path);
    CSD_CHECK_MSG(os.good(),
                  "cannot write chrome trace '" << *chrome_path << "'");
    obs::write_chrome_trace(os, instances);
    out << "\nchrome trace: " << *chrome_path
        << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }

  // Rounds-vs-n growth fit, checked against the paper's predicted exponent.
  const auto expect = inv.flag("expect-exponent");
  const double tol = to_double(inv.flag("tol").value_or("0.15"), "tol");
  const auto bootstrap =
      to_u32(inv.flag("bootstrap").value_or("0"), "bootstrap");
  const auto boot_seed = to_u64(inv.flag("seed").value_or("1"), "seed");
  bool fit_failed = false, expectation_checked = false;
  const auto groups = obs::rounds_vs_n_points(instances);
  for (const auto& [group, points] : groups) {
    const auto fit = obs::fit_power_law(points);
    if (!fit.has_value()) {
      out << "\nfit [" << group << "]: " << points.size()
          << " point(s), need two distinct n to fit\n";
      continue;
    }
    out << "\nfit [" << group << "]: rounds/rep ~ "
        << std::exp(fit->log_coeff) << " * n^" << fit->exponent << " over "
        << fit->points << " point(s)\n";
    std::optional<obs::BootstrapFit> ci;
    if (bootstrap > 0) {
      ci = obs::bootstrap_power_law(points, bootstrap, boot_seed);
      if (ci.has_value()) {
        out << "  bootstrap: exponent 95% CI [" << ci->exponent_lo << ", "
            << ci->exponent_hi << "] over " << bootstrap << " resample(s)";
        if (ci->degenerate_resamples > 0)
          out << ", " << ci->degenerate_resamples << " degenerate";
        out << '\n';
      }
    }
    if (!expect.has_value()) continue;
    if (group_filter.has_value() && group != *group_filter) continue;
    expectation_checked = true;
    const double bound = to_double(*expect, "expect-exponent") + tol;
    if (fit->exponent > bound) {
      out << "FAIL [" << group << "]: fitted exponent " << fit->exponent
          << " exceeds " << *expect << " + " << tol << '\n';
      fit_failed = true;
    } else if (ci.has_value() && ci->exponent_lo > bound) {
      // The whole confidence interval sits above the bound: the point
      // estimate scraping by is then sampling luck, not compliance.
      out << "FAIL [" << group << "]: bootstrap CI lower edge "
          << ci->exponent_lo << " exceeds " << *expect << " + " << tol
          << '\n';
      fit_failed = true;
    } else {
      out << "OK [" << group << "]: fitted exponent " << fit->exponent
          << " <= " << *expect << " + " << tol << '\n';
    }
  }
  if (expect.has_value() && !expectation_checked) {
    out << "FAIL: --expect-exponent given but no fittable group matched\n";
    fit_failed = true;
  }
  return fit_failed ? 1 : 0;
}

int cmd_list_cliques(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "list-cliques", {});
  CSD_CHECK_MSG(inv.positional.size() == 3, "list-cliques needs s and a file");
  const auto s = to_u32(inv.positional[1], "s");
  const Graph g = io::load(inv.positional[2]);
  detect::CliqueListingResult result;
  const auto outcome = detect::list_cliques_congested_clique(g, s, 64, &result);
  out << "K_" << s << " copies: " << result.total() << '\n'
      << "rounds:     " << outcome.metrics.rounds << '\n'
      << "oracle:     " << oracle::count_cliques(g, s) << '\n';
  return 0;
}

int cmd_fool(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "fool", {});
  CSD_CHECK_MSG(inv.positional.size() == 3, "fool needs N and c");
  lb::FoolingConfig cfg;
  cfg.namespace_size = to_u64(inv.positional[1], "N");
  const auto c = to_u32(inv.positional[2], "c");
  cfg.algorithm = detect::id_exchange_triangle_program(c);
  cfg.bandwidth = 64;
  cfg.max_rounds = 8;
  const auto report = lb::run_fooling_adversary(cfg);
  out << "executions:        " << report.executions << '\n'
      << "transcripts:       " << report.distinct_transcripts << '\n'
      << "largest class:     " << report.largest_class << '\n'
      << "box found:         " << (report.box_found ? "yes" : "no") << '\n';
  if (report.box_found) {
    out << "hexagon ids:      ";
    for (const auto id : report.hexagon) out << ' ' << id;
    out << '\n'
        << "Claim 4.4:         "
        << (report.transcripts_match ? "verified" : "FAILED") << '\n'
        << "algorithm fooled:  " << (report.hexagon_fooled ? "YES" : "no")
        << '\n';
  }
  return 0;
}

int cmd_fuzz(const Invocation& inv, std::ostream& out) {
  check_flags(inv, "fuzz", {"seconds", "seed", "cases", "corpus"});
  fuzz::FuzzOptions options;
  if (const auto s = inv.flag("seconds"))
    options.seconds = static_cast<double>(to_u64(*s, "seconds"));
  options.seed = to_u64(inv.flag("seed").value_or("1"), "seed");
  options.max_cases = to_u64(inv.flag("cases").value_or("0"), "cases");
  if (const auto dir = inv.flag("corpus")) options.corpus_dir = *dir;
  const auto report = fuzz::run_fuzzer(options, out);
  if (!report.ok()) {
    out << "FUZZ FAILURES:\n";
    for (const auto& failure : report.failures)
      out << "  " << failure.divergence.check << " (case seed "
          << failure.case_seed << "): " << failure.divergence.detail << '\n';
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  try {
    const Invocation inv = parse(args);
    const std::string& command = inv.positional.empty() ? args[0]
                                                        : inv.positional[0];
    if (command == "generate") return cmd_generate(inv, out);
    if (command == "stats") return cmd_stats(inv, out);
    if (command == "detect") return cmd_detect(inv, out);
    if (command == "sweep") return cmd_sweep(inv, out);
    if (command == "analyze") return cmd_analyze(inv, out);
    if (command == "postmortem") return cmd_postmortem(inv, out);
    if (command == "list-cliques") return cmd_list_cliques(inv, out);
    if (command == "fool") return cmd_fool(inv, out);
    if (command == "fuzz") return cmd_fuzz(inv, out);
    err << "unknown command '" << command << "'\n" << kUsage;
    return 1;
  } catch (const CheckFailure& failure) {
    err << "error: " << failure.what() << '\n';
    return 2;
  }
}

}  // namespace csd::cli
