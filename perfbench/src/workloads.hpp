// The benchmark's workloads.
//
// Each workload builds its inputs from the workload seed (setup), then runs
// one engine call at a time through the library's public entry points
// (call). A call covers one or more engine runs: an amplified detection
// call runs every repetition, a cut batch runs every seed. The traced pass
// (traced) replays one call of each kind with spans around every public
// call, EngineTimers and csd-trace-v2 round rows on, and must reproduce the
// untraced model-exact outputs bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Size { Full, Tiny };

/// Model-exact values of one call, grouped by the engine runs they describe.
/// A group that differs from its reference, or that carries a problem found
/// by the workload's own checks (wrong verdict, not completed), fails all of
/// its runs.
struct Group {
  std::string name;
  std::uint32_t runs = 1;
  std::vector<std::pair<std::string, std::uint64_t>> values;
  std::vector<std::string> problems;

  void add(std::string key, std::uint64_t value) {
    values.emplace_back(std::move(key), value);
  }
  void require(bool ok, std::string what) {
    if (!ok) problems.push_back(std::move(what));
  }
};
using Outputs = std::vector<Group>;

struct CallResult {
  Outputs outputs;
  std::uint32_t runs = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0;
  double wall_s() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// Per-layer values of the traced pass, by metric name. Times and counts
/// are per engine run unless the metric says otherwise.
using Layers = std::map<std::string, double>;

/// One term of the traced wall time: a layer's self time in the pass.
struct Term {
  std::string layer;
  double seconds = 0;
};

/// One replayed call; its outputs must equal the untraced call's of `kind`.
struct Replay {
  std::uint32_t kind = 0;
  std::uint32_t runs = 0;
  Outputs outputs;
};

struct TracedResult {
  std::vector<Replay> replays;
  /// Engine runs inside the traced wall.
  std::uint32_t runs = 0;
  double wall_s = 0;
  /// Self times that add up to wall_s (the accounting of the traced wall).
  std::vector<Term> terms;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs from the seed. Repeatable; spans may be null.
  virtual void setup(Spans* spans) = 0;
  /// Reference results the checks need (oracle, fault-free run). Untimed.
  virtual void prepare() = 0;
  /// Calls alternate over this many kinds of input; call i is kind i % kinds.
  virtual std::uint32_t kinds() const { return 1; }
  /// One untraced engine call, timed around the library call only; the
  /// checks run after the clock stops.
  virtual CallResult call(std::uint64_t i) = 0;
  /// The traced pass: one call of every kind, with spans under `spans`.
  /// After the traced wall it may replay calls on another engine and probe
  /// costs hidden inside library calls (Network, Partition and program
  /// builds), which the per-layer metrics report but the wall excludes.
  virtual TracedResult traced(Spans& spans, Layers& layers) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, Size size,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
