// Shared harness for the bench binaries: every bench keeps printing its
// human-readable reproduction table(s) AND mirrors each row into a
// csd-bench-v1 BenchReport (obs/bench_report.hpp), so one `--json DIR` flag
// turns any bench into a machine-diffable artifact for tools/bench_compare.py.
//
// Usage pattern (see any bench_*.cpp):
//
//   int main(int argc, char** argv) {
//     bench::BenchContext ctx("fig1_hk", argc, argv);
//     bench::ReportedTable table(ctx, "hk", {"k", "vertices", ...});
//     for (...) table.row().cell(k).cell(n)...;
//     table.print(std::cout);
//     return ctx.finish(std::cout);
//   }
//
// Flags understood here (unknown flags are left for the bench to parse):
//   --smoke       shrink the workload (each bench checks ctx.smoke());
//                 recorded in the report so baselines can't be compared
//                 against full runs by mistake
//   --json DIR    write BENCH_<name>.json into DIR at ctx.finish()
//   --trace FILE  benches that run live instances (and opt in via
//                 ctx.trace_options()) concatenate one stamped JSONL trace
//                 per instance into FILE for `csd analyze`; benches
//                 without live runs ignore it
//   --metrics-out FILE / --metrics-period MS / --blackbox FILE
//                 same csd-metrics-v2 plane as the csd CLI: benches that run
//                 live engines pass ctx.telemetry() into their configs; the
//                 sampler appends JSONL to FILE while the bench runs, and
//                 ctx.finish() stops it and writes the flight-recorder dump.
//                 Neither flag present -> ctx.telemetry() is nullptr and the
//                 measured workload is byte-for-byte the uninstrumented one
//                 (the bench-smoke overhead gate in CI holds this to <= 3%)
//
// Determinism contract: everything a ReportedTable records is a pure
// function of the workload (cells carry the raw numeric values, not the
// formatted strings), so reports are bit-identical across re-runs and
// thread counts. Wall clock and git SHA live in the report's "env" object.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/metrics_v2.hpp"
#include "obs/round_trace.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

namespace csd::bench {

/// Per-binary harness state: flag parsing + the BenchReport being built.
class BenchContext {
 public:
  BenchContext(std::string name, int argc, char** argv)
      : report_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg == "--json") {
        CSD_CHECK_MSG(i + 1 < argc, "--json needs a directory");
        json_dir_ = argv[++i];
      } else if (arg == "--trace") {
        CSD_CHECK_MSG(i + 1 < argc, "--trace needs a file");
        trace_path_ = argv[++i];
      } else if (arg == "--metrics-out") {
        CSD_CHECK_MSG(i + 1 < argc, "--metrics-out needs a file");
        metrics_path_ = argv[++i];
      } else if (arg == "--metrics-period") {
        CSD_CHECK_MSG(i + 1 < argc, "--metrics-period needs milliseconds");
        metrics_period_ms_ = std::stoull(argv[++i]);
        CSD_CHECK_MSG(metrics_period_ms_ >= 1,
                      "--metrics-period wants milliseconds >= 1");
      } else if (arg == "--blackbox") {
        CSD_CHECK_MSG(i + 1 < argc, "--blackbox needs a file");
        blackbox_path_ = argv[++i];
      }
    }
    report_.set_smoke(smoke_);
    if (!metrics_path_.empty() || !blackbox_path_.empty()) {
      telemetry_ = std::make_unique<obs::Telemetry>();
      if (!metrics_path_.empty())
        telemetry_->start_sampler(metrics_path_, metrics_period_ms_);
    }
  }

  bool smoke() const noexcept { return smoke_; }
  obs::BenchReport& report() noexcept { return report_; }

  /// The optional csd-metrics-v2 plane: nullptr unless --metrics-out or
  /// --blackbox was given, so the default bench run pays nothing. Benches
  /// with live engine runs forward this into their NetworkConfig /
  /// detector configs; pure-math benches can ignore it.
  obs::Telemetry* telemetry() const noexcept { return telemetry_.get(); }

  bool tracing() const noexcept { return !trace_path_.empty(); }

  /// Trace options for live runs: enabled iff --trace was given, per-edge
  /// attribution on, per-node arrays off (edges are what the congestion
  /// analyses read, and per-node rows dominate memory on big hosts).
  obs::TraceOptions trace_options() const {
    obs::TraceOptions options;
    options.enabled = tracing();
    options.per_node = false;
    options.per_edge = true;
    return options;
  }

  /// The --trace output stream, opened on first use.
  std::ostream& trace_stream() {
    CSD_CHECK_MSG(tracing(), "trace_stream() without --trace");
    if (!trace_os_.is_open()) {
      trace_os_.open(trace_path_);
      CSD_CHECK_MSG(trace_os_.good(),
                    "cannot write trace file '" << trace_path_ << "'");
    }
    return trace_os_;
  }

  BenchContext& param(const std::string& key, obs::Json value) {
    report_.param(key, std::move(value));
    return *this;
  }
  BenchContext& seed(std::uint64_t seed) {
    report_.seed(seed);
    return *this;
  }

  /// Call as `return ctx.finish(std::cout);` — stamps the wall clock and
  /// writes BENCH_<name>.json when --json was given.
  int finish(std::ostream& os) {
    report_.set_wall_clock_ms(timer_.elapsed_ms());
    if (telemetry_ != nullptr) {
      telemetry_->stop_sampler();
      if (!metrics_path_.empty())
        os << "[metrics] wrote " << metrics_path_ << '\n';
      // A bench exits cleanly by construction; the dump is still written
      // (reason bench-exit) so the overhead gate exercises the full path.
      if (!blackbox_path_.empty() &&
          telemetry_->dump_blackbox(blackbox_path_, "bench-exit"))
        os << "[blackbox] wrote " << blackbox_path_ << '\n';
    }
    if (!json_dir_.empty()) {
      const std::string path = report_.write_into(json_dir_);
      os << "\n[json] wrote " << path << '\n';
    }
    if (trace_os_.is_open()) os << "[trace] wrote " << trace_path_ << '\n';
    return 0;
  }

 private:
  obs::BenchReport report_;
  obs::WallTimer timer_;
  bool smoke_ = false;
  std::string json_dir_;
  std::string trace_path_;
  std::ofstream trace_os_;
  std::string metrics_path_;
  std::string blackbox_path_;
  std::uint64_t metrics_period_ms_ = 250;
  std::unique_ptr<obs::Telemetry> telemetry_;
};

/// A Table whose rows are mirrored into the context's BenchReport: row i of
/// section S becomes measurement "S/row<i>" with one value per column,
/// keyed by the column header. Numeric cells record the raw value (the
/// printed table may round doubles; the report never does).
class ReportedTable {
 public:
  ReportedTable(BenchContext& ctx, std::string section,
                std::vector<std::string> headers)
      : ctx_(ctx),
        section_(std::move(section)),
        headers_(headers),
        table_(std::move(headers)) {}

  class Row {
   public:
    Row& cell(const std::string& value) { return add(value, obs::Json(value)); }
    Row& cell(const char* value) {
      return add(value, obs::Json(std::string(value)));
    }
    Row& cell(double value, int precision = 3) {
      owner_->table_.cell(value, precision);
      record(obs::Json(value));
      return *this;
    }
    Row& cell(bool value) { return add(value, obs::Json(value)); }
    template <typename T>
      requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    Row& cell(T value) {
      return add(value, obs::Json(value));
    }

   private:
    friend class ReportedTable;
    Row(ReportedTable* owner, obs::BenchReport::Measurement* m)
        : owner_(owner), measurement_(m) {}

    template <typename T>
    Row& add(const T& value, obs::Json json) {
      owner_->table_.cell(value);
      record(std::move(json));
      return *this;
    }
    void record(obs::Json json) {
      const std::size_t col = column_++;
      const std::string& key = col < owner_->headers_.size()
                                   ? owner_->headers_[col]
                                   : "col" + std::to_string(col);
      measurement_->value(key, std::move(json));
    }

    ReportedTable* owner_;
    obs::BenchReport::Measurement* measurement_;
    std::size_t column_ = 0;
  };

  Row row() {
    table_.row();
    auto& m = ctx_.report().measurement(
        section_ + "/row" + std::to_string(next_row_++));
    return Row(this, &m);
  }

  std::size_t row_count() const noexcept { return table_.row_count(); }
  void print(std::ostream& os) const { table_.print(os); }

 private:
  BenchContext& ctx_;
  std::string section_;
  std::vector<std::string> headers_;
  Table table_;
  std::size_t next_row_ = 0;
};

}  // namespace csd::bench
