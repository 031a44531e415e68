// Opt-in per-round message/bit recorder for the CONGEST engines.
//
// A RunTrace rides inside a RunOutcome: each Network::run (or async run)
// fills its own instance, so concurrent runs under RunBatch need no locks —
// the per-repetition buffers are merged afterwards in repetition order by
// merge_amplified (RunBatch::stream hands outcomes over in index order).
// The trace is therefore bit-identical for every --jobs count, exactly like
// the metrics it refines.
//
// Cost model: a disabled trace is a default-constructed object — no
// allocation, and the engines guard every record() behind a single
// well-predicted `if (trace)`, so the hot path pays one branch and nothing
// else. approx_bytes() reports the observer's storage footprint (0 when
// disabled), which test_obs pins down.
//
// Recorded per round (sender-side accounting, matching RunMetrics):
//   * total messages and payload bits,
//   * optionally per-node messages/bits (TraceOptions::per_node),
//   * the algorithmic phase the round belongs to, when the node program
//     declares one through NodeApi::phase (phase spans, schema v2),
// plus run-wide aggregates: a message-size histogram in power-of-two
// buckets (TraceOptions::histogram), per-directed-edge message/bit totals
// (TraceOptions::per_edge — the raw material of the §3.4 cut-traffic
// claims), engine counters (add_counter), and free-form header metadata
// (set_meta — instance parameters, so multi-instance JSONL files demux).
//
// All of it lives in one obs::TraceInstance, the record csd-trace-v2 reads
// back, so traces compare as records. It holds model-level data only — no
// timestamps, no wall clock (EngineTimers lives in RunMetrics for exactly
// that reason), so a fault-free async trace equals the synchronous one and
// any trace is the same at every --jobs count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace_analysis.hpp"

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

/// One round's traffic (TraceInstance::Round).
using RoundRecord = TraceInstance::Round;

class RunTrace {
 public:
  /// Disabled trace (records nothing, allocates nothing).
  RunTrace() = default;
  RunTrace(std::uint32_t num_nodes, const TraceOptions& options);

  bool enabled() const noexcept { return options_ && options_->enabled; }
  explicit operator bool() const noexcept { return enabled(); }

  /// Account one message of `bits` payload bits sent by node `src` to node
  /// `dst` in `round`. Rounds may be recorded out of order (the async
  /// engine's pulses interleave across nodes); the round list grows as
  /// needed and quiet rounds keep zero records.
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

  /// Add `value` to the summary's counter `name`. The block keeps its
  /// names sorted and holds no zero, so clean runs add no bytes.
  void add_counter(std::string_view name, std::uint64_t value);

  /// End a run of `rounds` rounds: materialize quiet trailing rounds (a
  /// trace otherwise ends at the last round that sent a message), so
  /// rounds / segments is the per-repetition round count the exponent fit
  /// consumes, and fold the run's per-edge totals into the record.
  void finish_run(std::uint64_t rounds);

  /// Rounds from+1 .. until-1 ran no node (the sync kernel skipped them,
  /// DESIGN.md §15): give each one round `from`'s phase, materializing the
  /// rows one at a time exactly as if every node had declared that phase
  /// again. A no-op when round `from` has no phase.
  void carry_phase(std::uint64_t from, std::uint64_t until);

  /// Append `other` as the next repetition. Contract, by receiver state:
  ///   * enabled: `other`'s rounds are re-based after this trace's last
  ///     round, histograms / edge totals / counters are summed, the
  ///     receiver's meta is kept, and the segment boundary is remembered
  ///     so the JSONL sink can label repetitions. Both must agree on
  ///     per_node, per_edge and histogram (CHECKed), so node rows, edge
  ///     totals and buckets keep summing to the totals;
  ///   * default-constructed (never configured): adopts `other` wholesale,
  ///     including its segment boundaries — the merge-accumulator idiom
  ///     used by merge_amplified and the CLI;
  ///   * explicitly configured with TraceOptions::enabled == false: no-op.
  ///     The receiver keeps its own (disabled) configuration instead of
  ///     silently inheriting the donor's options, which historically turned
  ///     a deliberately disabled trace into an enabled one.
  /// Appending a disabled `other` is always a no-op.
  void append(const RunTrace& other);

  /// The recorded instance. A run's per-edge totals join it at finish_run.
  const TraceInstance& instance() const noexcept { return instance_; }
  const std::vector<RoundRecord>& rounds() const noexcept {
    return instance_.rounds;
  }
  /// Number of appended run segments (1 for a plain run, R for amplified).
  std::uint64_t segments() const noexcept {
    return segment_count(instance_.segment_starts.size(),
                         instance_.rounds.size());
  }

  /// Observer storage footprint in bytes (0 when disabled).
  std::uint64_t approx_bytes() const noexcept;

  /// JSONL sink: write_trace_jsonl of instance(), after finish_run.
  void write_jsonl(std::ostream& os) const;

 private:
  void ensure_round(std::uint64_t round);

  /// nullopt until a configuration is chosen (the 2-arg constructor ran or
  /// a donor was adopted); tells a deliberately disabled trace from a
  /// default-constructed accumulator in append().
  std::optional<TraceOptions> options_;
  TraceInstance instance_;
  /// The current run's per-edge totals keyed (src << 32) | dst, folded into
  /// instance_.edges by finish_run.
  std::unordered_map<std::uint64_t, TraceInstance::Edge> run_edges_;
};

}  // namespace csd::obs
