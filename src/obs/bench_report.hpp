// Structured benchmark reports: one JSON schema for every bench binary and
// for `csd detect` / `csd sweep --json`.
//
// Schema (csd-bench-v1):
//   {
//     "schema": "csd-bench-v1",
//     "name": "<bench name>",
//     "smoke": <bool>,
//     "params": { ... },                    // global knobs (bandwidth, ...)
//     "seeds": [ ... ],                     // every seed the run consumed
//     "measurements": [                     // ordered, deterministic
//       {"name": "<section>/<row>", "values": { ... }}, ...
//     ],
//     "env": { ..., "git_sha": "...", "wall_clock_ms": <double>,
//              "peak_rss_mib": <double> }
//   }
//
// Everything OUTSIDE "env" is a pure function of the workload: model-exact
// rounds/bits/verdicts, bit-identical across --jobs counts and re-runs.
// Wall-clock, the process's peak resident set when the report is written
// (getrusage ru_maxrss), the git SHA, and the jobs count live in "env", which
// tools/bench_compare.py treats separately (tolerance-gated wall clock,
// ignored SHA). Keys ending in "_ms" or "_ns" inside measurements are also
// wall-clock by convention (bench_micro) and compared with tolerance.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace csd::obs {

constexpr const char* kBenchSchema = "csd-bench-v1";

/// Builder for one BENCH_<name>.json document. Insertion order of params,
/// seeds, and measurements is preserved in the output.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  const std::string& name() const noexcept { return name_; }
  void set_smoke(bool smoke) { smoke_ = smoke; }

  BenchReport& param(const std::string& key, Json value);
  BenchReport& seed(std::uint64_t seed);

  /// One named measurement row; values are added in call order.
  class Measurement {
   public:
    Measurement& value(const std::string& key, Json v) {
      values_.set(key, std::move(v));
      return *this;
    }

   private:
    friend class BenchReport;
    explicit Measurement(std::string name)
        : name_(std::move(name)), values_(Json::object()) {}
    std::string name_;
    Json values_;
  };

  /// Start (or retrieve, by exact name) a measurement. Names must be
  /// deterministic: they are the join keys bench_compare matches on.
  /// References stay valid for the report's lifetime (deque storage).
  Measurement& measurement(const std::string& name);

  /// Extra env entries (jobs count, host info). Never compared exactly.
  BenchReport& env(const std::string& key, Json value);
  void set_wall_clock_ms(double ms) { wall_clock_ms_ = ms; }

  /// Full document, deterministic member order. Wall clock, peak RSS and
  /// git SHA are confined to the "env" object.
  Json to_json() const;
  std::string to_json_text() const;

  /// Write BENCH_<name>.json into `dir` (created if missing); returns the
  /// path written.
  std::string write_into(const std::string& dir) const;
  void write(const std::string& path) const;

  /// Compile-time git SHA (CSD_GIT_SHA; "unknown" outside a git checkout).
  static const char* git_sha();

 private:
  std::string name_;
  bool smoke_ = false;
  Json params_ = Json::object();
  std::vector<std::uint64_t> seeds_;
  std::deque<Measurement> measurements_;
  Json env_ = Json::object();
  double wall_clock_ms_ = -1.0;  // < 0 = not recorded
};

/// Wall-clock stopwatch for BenchReport::set_wall_clock_ms.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    const auto dt = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(dt).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace csd::obs
