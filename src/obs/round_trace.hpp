// Opt-in per-round message/bit recorder for the CONGEST engines.
//
// A RunTrace rides inside a RunOutcome: each Network::run (or async run)
// fills its own instance, so concurrent runs under RunBatch need no locks —
// the per-task buffers are merged afterwards in deterministic task order by
// run_amplified (RunBatch already returns outcomes in task order). The
// trace is therefore bit-identical for every --jobs count, exactly like the
// metrics it refines.
//
// Cost model: a disabled trace is a default-constructed object — no
// allocation, and the engines guard every record() behind a single
// well-predicted `if (trace)`, so the hot path pays one branch and nothing
// else. RunMetrics::trace_bytes reports the observer's storage footprint
// (0 when disabled), which test_obs pins down.
//
// Recorded per round (sender-side accounting, matching RunMetrics):
//   * total messages and payload bits,
//   * optionally per-node messages/bits (TraceOptions::per_node),
//   * the algorithmic phase the round belongs to, when the node program
//     declares one through NodeApi::phase (phase spans, schema v2),
// plus run-wide aggregates: a message-size histogram in power-of-two
// buckets (TraceOptions::histogram), per-directed-edge message/bit totals
// (TraceOptions::per_edge — the raw material of the §3.4 cut-traffic
// claims), engine counters (set_counters), and free-form header metadata
// (set_meta — instance parameters, so multi-instance JSONL files demux).
//
// The JSONL sink writes one compact JSON object per line: a header, one
// line per round, one line per directed edge (per_edge only, sorted by
// (src, dst)), and a summary with histogram / per-phase totals / non-zero
// counters — machine-exact trajectories for bench_compare, `csd analyze`,
// and tools/trace_report.py. Everything emitted is a pure function of the
// recorded model-level data: no timestamps, no pointers, no wall clock
// (EngineTimers lives in RunMetrics for exactly that reason), so a
// fault-free async trace is byte-identical to the synchronous one and any
// trace is byte-identical at every --jobs count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace csd::obs {

struct TraceOptions {
  /// Master switch; everything below except `timers` is ignored when false.
  bool enabled = false;
  /// Record per-node message/bit counts each round (memory: O(rounds * n)).
  bool per_node = true;
  /// Maintain the run-wide message-size histogram.
  bool histogram = true;
  /// Attribute traffic to directed edges (memory: O(edges used)). Off by
  /// default: most callers want trajectories, not congestion maps.
  bool per_edge = false;
  /// Wall-clock the engine internals (compute / delivery / transport) into
  /// RunMetrics::timers (sync) or AsyncRunOutcome::timers (async). This
  /// never touches the trace itself — timings are not deterministic, traces
  /// are — and is honored even when `enabled` is false.
  bool timers = false;
};

/// One round's traffic. `node_*` vectors are empty unless per_node is set;
/// `phase` indexes RunTrace::phase_names() (-1 = no phase declared).
struct RoundRecord {
  std::uint64_t round = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::int32_t phase = -1;
  std::vector<std::uint64_t> node_messages;
  std::vector<std::uint64_t> node_bits;
};

/// Directed-edge traffic totals (per_edge only).
struct EdgeRecord {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

class RunTrace {
 public:
  /// Disabled trace (records nothing, allocates nothing).
  RunTrace() = default;
  RunTrace(std::uint32_t num_nodes, const TraceOptions& options);

  bool enabled() const noexcept { return enabled_; }
  explicit operator bool() const noexcept { return enabled_; }

  /// Account one message of `bits` payload bits sent by node `src` to node
  /// `dst` in `round`. Rounds may be recorded out of order (the async
  /// engine's pulses interleave across nodes); the vector grows as needed
  /// and quiet rounds keep zero records.
  void record(std::uint64_t round, std::uint32_t src, std::uint32_t dst,
              std::uint64_t bits);

  /// Declare that `round` belongs to algorithmic phase `name`. First
  /// declaration wins (all detection programs derive the phase from the
  /// round number alone, so every node declares the same name; the rule
  /// just avoids per-node bookkeeping). Safe to call before or after the
  /// round's record() calls.
  void set_phase(std::uint64_t round, std::string_view name);

  /// Stamp a (key, value) pair into the JSONL header — instance parameters
  /// (program, n, seed, ...) so multi-instance trace files demux. Last
  /// write to a key wins. Values are emitted as JSON strings.
  void set_meta(std::string_view key, std::string_view value);

  /// Replace the engine-counter block copied into the JSONL summary (only
  /// non-zero entries are emitted, so clean runs add no bytes).
  void set_counters(const MetricsRegistry& counters);

  /// Declare that the run executed `rounds` rounds in total, materializing
  /// quiet trailing rounds (a trace otherwise ends at the last round that
  /// sent a message). Called by both engines at the end of a run so
  /// rounds / segments is exactly the per-repetition round count — the
  /// quantity the rounds-vs-n exponent fit consumes.
  void finish_run(std::uint64_t rounds);

  /// Rounds from+1 .. until-1 ran no node (the classic engine skipped them,
  /// DESIGN.md §15): give each one round `from`'s phase, materializing the
  /// rows one at a time exactly as if every node had declared that phase
  /// again. A no-op when round `from` has no phase.
  void carry_phase(std::uint64_t from, std::uint64_t until);

  /// Append `other` as the next repetition. Contract, by receiver state:
  ///   * enabled: `other`'s rounds are re-based after this trace's last
  ///     round, histograms / edge totals / counters / totals are summed,
  ///     phase names are re-interned by name, the receiver's meta is kept,
  ///     and the segment boundary is remembered so the JSONL sink can label
  ///     repetitions;
  ///   * default-constructed (never configured): adopts `other` wholesale,
  ///     including its segment boundaries — the merge-accumulator idiom
  ///     used by run_amplified and the CLI;
  ///   * explicitly configured with TraceOptions::enabled == false: no-op.
  ///     The receiver keeps its own (disabled) configuration instead of
  ///     silently inheriting the donor's options, which historically turned
  ///     a deliberately disabled trace into an enabled one.
  /// Appending a disabled `other` is always a no-op.
  void append(const RunTrace& other);

  std::uint32_t num_nodes() const noexcept { return num_nodes_; }
  const std::vector<RoundRecord>& rounds() const noexcept { return rounds_; }
  /// histogram()[b] counts messages whose payload size in bits lies in
  /// [2^(b-1), 2^b); bucket 0 counts empty (0-bit) messages alone.
  const std::vector<std::uint64_t>& histogram() const noexcept {
    return histogram_;
  }
  /// Phase names in first-declaration order; RoundRecord::phase indexes it.
  const std::vector<std::string>& phase_names() const noexcept {
    return phase_names_;
  }
  /// Directed-edge totals keyed (src << 32) | dst (per_edge only).
  const std::unordered_map<std::uint64_t, EdgeRecord>& edges() const noexcept {
    return edges_;
  }
  const std::vector<std::pair<std::string, std::string>>& meta()
      const noexcept {
    return meta_;
  }
  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t total_bits() const noexcept { return total_bits_; }
  /// Number of appended run segments (1 for a plain run, R for amplified).
  std::uint64_t segments() const noexcept {
    return segment_starts_.empty() ? (rounds_.empty() ? 0 : 1)
                                   : segment_starts_.size();
  }

  /// Observer storage footprint in bytes (0 when disabled) — the number
  /// RunMetrics::trace_bytes exposes.
  std::uint64_t approx_bytes() const noexcept;

  /// JSONL sink: header line, one line per round, one line per directed
  /// edge (per_edge, sorted), summary line. Output is a pure function of
  /// the recorded data (no timestamps, no pointers), so it is bit-identical
  /// across thread counts and re-runs.
  void write_jsonl(std::ostream& os) const;

 private:
  void ensure_round(std::uint64_t round);
  std::int32_t intern_phase(std::string_view name);

  bool enabled_ = false;
  /// True once a configuration was chosen (the 2-arg constructor ran or a
  /// donor was adopted); distinguishes a deliberate disabled trace from a
  /// default-constructed accumulator in append().
  bool configured_ = false;
  TraceOptions options_;
  std::uint32_t num_nodes_ = 0;
  std::vector<RoundRecord> rounds_;
  std::vector<std::uint64_t> histogram_;
  std::vector<std::string> phase_names_;
  std::unordered_map<std::uint64_t, EdgeRecord> edges_;
  std::vector<std::pair<std::string, std::string>> meta_;
  MetricsRegistry counters_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bits_ = 0;
  /// Index into rounds_ where each appended segment starts.
  std::vector<std::uint64_t> segment_starts_;
};

}  // namespace csd::obs
