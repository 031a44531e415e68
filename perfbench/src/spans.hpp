// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// was open when it started (its parent), and the run id of the workload
// pass it belongs to. Spans are kept in memory while the workload runs and
// written out as JSONL when the benchmark ends. A layer's self time is its
// span's duration minus the time its child spans cover; the caller is a
// single thread, so children never overlap and that is a plain difference.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string run_id;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Spans::all(), -1 = root
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

class Spans {
 public:
  /// Open a span under the innermost open one; returns its index.
  int open(std::string name);
  /// Close span `id`, which must be the innermost open span.
  void close(int id);
  /// Record an already-timed interval under the innermost open span.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  /// Run id stamped on spans opened from now on.
  void set_run_id(std::string run_id) { run_id_ = std::move(run_id); }

  const std::vector<Span>& all() const noexcept { return spans_; }

  /// Sum of self times (duration minus direct children) of spans `name`.
  double self_s(const std::string& name) const;
  /// Median duration of the spans called `name` (0 if none).
  double median_s(const std::string& name) const;

  /// One JSON object per line: a header line holding `stamp_json`, then
  /// one line per span in start order.
  void write_jsonl(const std::string& path,
                   const std::string& stamp_json) const;

  /// RAII helper: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans* spans, std::string name)
        : spans_(spans), id_(spans ? spans->open(std::move(name)) : -1) {}
    ~Scope() {
      if (spans_ != nullptr) spans_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_;
  };

 private:
  double child_s(std::size_t id) const;

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::string run_id_;
};

}  // namespace perfbench
