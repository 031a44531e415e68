// perfbench: the repository benchmark's measuring binary (driven by run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--pins FILE] [--spans-out FILE]
//             [--git-sha SHA] [--dump-outputs]
//
// Untraced (--trace 0): make engine calls one after another for S seconds,
// building the inputs again before each, and report setup_s (median build),
// wall_s / cpu_s per engine run (medians over the calls) and the process's
// peak RSS. Traced (--trace 1): the same measured loop, then one
// traced pass and its probes, reported as per-layer metrics.
//
// Every call's model-exact outputs are checked: against the first call of
// the same kind (any seed), against the pinned values (when FILE pins this
// workload, size and seed), and by the workload's own verdict checks. The
// last stdout line is {"correct", "attempted", "failed", "metrics"}; the exit
// code is 0 only if every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}};

// Shard compute/delivery come from EngineTimers on the sharded engine,
// which DESIGN.md §12 calls approximate; the unit says so.
constexpr MetricDef kLayers[] = {
    {"graph.build_s", "s"},
    {"lowerbound.frame_build_s", "s"},
    {"congest.network_build_s", "s"},
    {"congest.partition_build_s", "s"},
    {"detect.program_build_s", "s"},
    {"detect.compute_s", "s"},
    {"congest.sync.run_s", "s"},
    {"congest.sync.delivery_s", "s"},
    {"congest.sync.other_s", "s"},
    {"congest.rounds", "count"},
    {"congest.active_rounds", "count"},
    {"congest.active_round_frac", "ratio"},
    {"congest.messages", "count"},
    {"congest.bits", "bits"},
    {"congest.ns_per_node_round", "ns"},
    {"congest.ns_per_message", "ns"},
    {"congest.amplify_merge_s", "s"},
    {"congest.shard.run_s", "s"},
    {"congest.shard.compute_s", "s_approx"},
    {"congest.shard.delivery_s", "s_approx"},
    {"congest.shard.us_per_superstep", "us"},
    {"congest.shard.cut_edges", "count"},
    {"congest.shard.channel_frames", "count"},
    {"congest.shard.channel_bytes", "bytes"},
    {"congest.async.run_s", "s"},
    {"congest.async.sync_s", "s"},
    {"congest.async.transport_s", "s"},
    {"congest.async.queue_s", "s"},
    {"congest.async.pulses", "count"},
    {"congest.async.frames", "count"},
    {"congest.async.acks", "count"},
    {"congest.async.retransmissions", "count"},
    {"congest.async.frames_dropped", "count"},
    {"congest.async.checksum_rejects", "count"},
    {"congest.async.duplicate_packets", "count"},
    {"congest.async.transport_failures", "count"},
    {"congest.async.goodput", "ratio"},
    {"congest.async.retransmit_ratio", "ratio"},
    {"congest.async.ns_per_frame", "ns"},
    {"comm.batch_s", "s"},
    {"comm.per_seed_s", "s"},
    {"comm.cut_edges", "count"},
    {"comm.crossing_messages", "count"},
    {"comm.crossing_bits", "bits"},
    {"obs.trace_overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::Full;
  std::string pins;
  std::string spans_out;
  std::string git_sha = "unknown";
  bool dump_outputs = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--pins FILE] "
               "[--spans-out FILE] [--git-sha SHA] [--dump-outputs]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dump-outputs") {
      a.dump_outputs = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace wants 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size wants full|tiny");
        a.size = value == "full" ? Size::Full : Size::Tiny;
      } else if (flag == "--pins") {
        a.pins = value;
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else if (flag == "--git-sha") {
        a.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload '" + a.workload + "'");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Machine and build fingerprint stamped on every report.
std::string stamp_json(const Args& a) {
  std::ostringstream s;
  s << "{\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu\":\""
    << json_escape(cpu_model()) << "\",\"compiler\":\""
    << json_escape(__VERSION__) << "\",\"cxx_flags\":\""
    << json_escape(PERFBENCH_CXX_FLAGS) << "\",\"build_type\":\""
    << PERFBENCH_BUILD_TYPE << "\",\"git_sha\":\"" << json_escape(a.git_sha)
    << "\",\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
    << ",\"size\":\"" << (a.size == Size::Full ? "full" : "tiny")
    << "\",\"seconds\":" << a.seconds << ",\"trace\":" << (a.trace ? 1 : 0)
    << "}";
  return s.str();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : (xs[m - 1] + xs[m]) / 2;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Pinned model-exact values: "workload size seed group.key value" lines.
std::map<std::string, std::uint64_t> load_pins(const Args& a) {
  std::map<std::string, std::uint64_t> pins;
  if (a.pins.empty()) return pins;
  std::ifstream in(a.pins);
  if (!in) usage("cannot read pins file " + a.pins);
  const std::string size = a.size == Size::Full ? "full" : "tiny";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, sz, key;
    std::uint64_t seed = 0, value = 0;
    if (!(fields >> workload >> sz >> seed >> key >> value))
      usage("malformed pins line: " + line);
    if (workload == a.workload && sz == size && seed == a.seed)
      pins[key] = value;
  }
  return pins;
}

/// Checks every call's outputs and counts failed engine runs.
class Checker {
 public:
  Checker(std::map<std::string, std::uint64_t> pins, std::uint32_t kinds)
      : pins_(std::move(pins)), refs_(kinds) {}

  /// Returns the number of failed runs among `runs` described by `outputs`.
  std::uint32_t check(std::uint32_t kind, const Outputs& outputs,
                      std::uint32_t runs, const char* where) {
    Outputs& ref = refs_[kind];
    if (ref.empty()) ref = outputs;
    std::uint32_t failed = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const Group& g = outputs[i];
      std::vector<std::string> why = g.problems;
      if (i >= ref.size() || ref[i].values != g.values)
        why.push_back("differs from the first call");
      for (const auto& [key, value] : g.values) {
        const std::string full = g.name + "." + key;
        seen_.push_back(full);
        if (pins_.empty()) continue;
        const auto pin = pins_.find(full);
        if (pin == pins_.end())
          why.push_back(full + " has no pinned value");
        else if (pin->second != value)
          why.push_back(full + " = " + std::to_string(value) + ", pinned " +
                        std::to_string(pin->second));
      }
      if (why.empty()) continue;
      failed += g.runs;
      for (const std::string& w : why)
        if (messages_.size() < 20)
          messages_.push_back(std::string(where) + " " + g.name + ": " + w);
    }
    if (outputs.size() != ref.size()) failed = runs;
    return std::min(failed, runs);
  }

  /// Pinned keys no call produced.
  std::vector<std::string> unseen_pins() const {
    std::vector<std::string> out;
    for (const auto& [key, value] : pins_)
      if (std::find(seen_.begin(), seen_.end(), key) == seen_.end())
        out.push_back(key);
    return out;
  }

  bool pinned() const { return !pins_.empty(); }
  const std::vector<Outputs>& refs() const { return refs_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::map<std::string, std::uint64_t> pins_;
  std::vector<Outputs> refs_;
  std::vector<std::string> seen_;
  std::vector<std::string> messages_;
};

int run(const Args& a) {
  const std::string stamp = stamp_json(a);
  std::cout << "stamp: " << stamp << '\n';
  const std::string tag = a.workload + "/seed" + std::to_string(a.seed);
  auto workload = make_workload(a.workload, a.size, a.seed);
  Checker checker(load_pins(a), workload->kinds());
  std::uint64_t attempted = 0, failed = 0;
  Spans spans;
  Spans* tracer = a.trace ? &spans : nullptr;

  // Setup builds the same inputs again before every call: at least once
  // and for at least 50 ms. setup_s is the median over all builds, so its
  // samples spread over the measured window like the engine calls do.
  std::vector<double> setups;
  const auto setup = [&] {
    const std::int64_t begin = now_ns();
    for (int k = 0; k < 100; ++k) {
      const std::int64_t t0 = now_ns();
      workload->setup(tracer);
      const std::int64_t t1 = now_ns();
      setups.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (t1 - begin >= 50'000'000) break;
    }
  };
  spans.set_run_id(tag + "/setup");
  setup();
  workload->prepare();

  // Measured loop: one engine call at a time, in whole rounds over the
  // input kinds, until the next round would end more than half a round
  // past the deadline.
  std::vector<double> wall, cpu;
  const std::uint32_t kinds = workload->kinds();
  std::int64_t round_start = now_ns();
  const std::int64_t deadline =
      round_start + static_cast<std::int64_t>(a.seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    spans.set_run_id(tag + "/call" + std::to_string(i));
    setup();
    const CallResult r = workload->call(i);
    if (tracer) spans.add("untraced_call", r.start_ns, r.end_ns);
    wall.push_back(r.wall_s() / r.runs);
    cpu.push_back(r.cpu_s / r.runs);
    attempted += r.runs;
    failed += checker.check(static_cast<std::uint32_t>(i % kinds), r.outputs,
                            r.runs, "call");
    if ((i + 1) % kinds != 0) continue;
    const std::int64_t now = now_ns();
    const std::int64_t round_ns = now - round_start;
    round_start = now;
    if (now + round_ns / 2 >= deadline) break;
  }

  std::map<std::string, double> metrics;
  std::vector<const MetricDef*> defs;
  if (!a.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["setup_s"] = median(setups);
    metrics["wall_s"] = median(wall);
    metrics["cpu_s"] = median(cpu);
    metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    for (const MetricDef& d : kEndToEnd) defs.push_back(&d);
  } else {
    Layers layers;
    for (const MetricDef& d : kLayers) layers[d.name] = 0;
    layers["graph.build_s"] = spans.median_s("graph.build");
    layers["lowerbound.frame_build_s"] =
        spans.median_s("lowerbound.frame_build");
    spans.set_run_id(tag + "/traced");
    const TracedResult t = workload->traced(spans, layers);
    for (const Replay& replay : t.replays) {
      attempted += replay.runs;
      failed += checker.check(replay.kind, replay.outputs, replay.runs,
                              "traced replay");
    }
    const double traced_per_run = t.wall_s / t.runs;
    const double untraced_per_run = median(wall);
    layers["obs.trace_overhead_frac"] =
        traced_per_run / untraced_per_run - 1.0;

    std::cout << "traced pass: " << fmt(t.wall_s) << " s over " << t.runs
              << " engine runs; per run traced " << fmt(traced_per_run)
              << " s, untraced " << fmt(untraced_per_run) << " s\n"
              << "accounting of the traced wall (layer self times):\n";
    double sum = 0;
    for (const Term& term : t.terms) {
      sum += term.seconds;
      std::cout << "  " << term.layer << ": " << fmt(term.seconds) << " s ("
                << fmt(100.0 * term.seconds / t.wall_s) << "%)\n";
    }
    std::cout << "  sum: " << fmt(sum) << " s of " << fmt(t.wall_s)
              << " s traced wall\n";
    for (const auto& [name, value] : layers) metrics[name] = value;
    for (const MetricDef& d : kLayers) defs.push_back(&d);
  }

  const std::vector<std::string> unseen = checker.unseen_pins();
  for (const std::string& key : unseen)
    std::cout << "FAIL: pinned " << key << " was not produced\n";
  for (const std::string& m : checker.messages())
    std::cout << "FAIL: " << m << '\n';
  if (a.dump_outputs)
    for (const Outputs& ref : checker.refs())
      for (const Group& g : ref)
        for (const auto& [key, value] : g.values)
          std::cout << "pin " << a.workload << ' '
                    << (a.size == Size::Full ? "full" : "tiny") << ' '
                    << a.seed << ' ' << g.name << '.' << key << ' ' << value
                    << '\n';

  std::cout << "workload " << a.workload << " seed " << a.seed << ": "
            << wall.size() << " calls, " << attempted << " engine runs, "
            << (checker.pinned() ? "pinned values checked"
                                 : "self-consistency checks (no pins)")
            << '\n';
  std::cout << "  fail_frac = "
            << fmt(static_cast<double>(failed) / static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " runs)\n";
  std::vector<double> sorted = wall;
  std::sort(sorted.begin(), sorted.end());
  std::cout << "  wall per engine run over the calls: min "
            << fmt(sorted.front()) << " s, median " << fmt(median(wall))
            << " s, max " << fmt(sorted.back()) << " s\n";
  for (const MetricDef* d : defs)
    std::cout << "  " << d->name << " = " << fmt(metrics[d->name]) << ' '
              << d->unit << '\n';

  if (!a.spans_out.empty()) spans.write_jsonl(a.spans_out, stamp);

  const bool correct = failed == 0 && unseen.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << defs[i]->name << "\": {\"value\": "
              << fmt(metrics[defs[i]->name]) << ", \"unit\": \""
              << defs[i]->unit << "\"}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to report timings from an unoptimized "
               "build (build type " PERFBENCH_BUILD_TYPE ")\n";
  return 2;
#else
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
#endif
}
