// Sublinear C_2k detection — Theorem 1.1 / §6 of the paper.
//
// Two phases, both color-coded:
//
//   Phase I ("high-degree"): every node draws a color in {0,...,2k-1}; nodes
//   with degree >= T = ⌈n^{1/(k-1)}⌉ and color 0 launch a color-coded BFS
//   token (origin, hop); tokens are pipelined one-per-round. If the graph is
//   within the Turán edge budget M = c·n^{1+1/k} ⊇ ex(n, C_2k), there are at
//   most 2M/T token origins, so all queues drain within R1 = ⌈2M/T⌉ + 2k
//   rounds (Lemma 6.1); a queue still busy at the deadline certifies
//   |E| > M >= ex(n, C_2k), which itself certifies a 2k-cycle (Lemma 6.3).
//
//   Phase II ("low-degree remainder"): high-degree nodes drop out; the rest
//   peel themselves into layers, each wave removing nodes with at most
//   d = ⌈4M/n⌉ remaining neighbors, for ⌈log2 n⌉+1 waves (up-degree <= d;
//   nodes left unassigned certify density ⇒ a cycle). Fresh colors are
//   drawn; color-0 nodes announce (id, layer); their up-neighbors colored 1
//   and 2k-1 start increasing/decreasing prefix tokens that only descend
//   layers; at color k the two directions meet and close the cycle.
//
// Every rejection certifies a real 2k-cycle (one-sided error, Lemma 6.3 and
// its phase-II analogue); an existing 2k-cycle is caught with probability
// >= (2k)^{-2k} per repetition (Corollary 6.2 / Claim 6.4), amplified by
// repetitions. The total round budget is O(n^{1-1/(k(k-1))}) for constant c.
#pragma once

#include <cstdint>

#include "congest/supervisor.hpp"
#include "graph/graph.hpp"

namespace csd::detect {

struct EvenCycleConfig {
  /// Detect C_{2k}; k >= 2.
  std::uint32_t k = 2;
  /// Turán-constant numerator/denominator: M = ⌈(c_num/c_den)·n^{1+1/k}⌉.
  /// Must satisfy M >= ex(n, C_2k) for the "too many edges" rejections to be
  /// sound; the default 4 covers every instance this library generates (the
  /// true constant is O(k) by Bondy–Simonovits).
  std::uint64_t c_num = 4;
  std::uint64_t c_den = 1;
  /// Independent repetitions (amplification).
  std::uint32_t repetitions = 1;
  /// How repetitions are driven: worker threads + early exit after the
  /// first rejecting repetition. Results are jobs-count independent.
  congest::AmplifyOptions amplify;
  /// Ablation knobs (used by the ABL bench): disabling a phase keeps the
  /// round schedule but suppresses that phase's token initiation, so the
  /// other phase's behaviour is isolated.
  bool enable_phase1 = true;
  bool enable_phase2 = true;
  /// Per-round observability; the amplified outcome carries the traces of
  /// all executed repetitions appended in repetition order.
  obs::TraceOptions trace;
  /// Round-kernel workers for each repetition (congest/shard.hpp); 0 and 1
  /// run inline. Bit-identical at every worker count.
  congest::ShardSpec shard;
  /// Optional csd-metrics-v2 plane, forwarded to every repetition's engine
  /// (non-owning, write-only; nullptr = zero cost).
  obs::Telemetry* telemetry = nullptr;
};

/// Deterministic round schedule shared by all nodes (computed from n, k, M).
struct EvenCycleSchedule {
  std::uint64_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t edge_bound_m = 0;     // M
  std::uint64_t degree_threshold = 0;  // T = ⌈n^{1/(k-1)}⌉
  std::uint64_t peel_degree = 0;       // d = max(1, ⌈4M/n⌉)
  std::uint64_t phase1_rounds = 0;     // R1
  std::uint64_t layer_waves = 0;       // ⌈log2 n⌉ + 1
  /// First round of each propagation window i = 1..k-1 (window 1 is the
  /// color-0 announcement round; windows use absolute round numbers).
  std::vector<std::uint64_t> window_start;
  std::uint64_t final_round = 0;  // last round (midpoint check + halt)

  std::uint64_t total_rounds() const { return final_round + 1; }
};

EvenCycleSchedule make_even_cycle_schedule(std::uint64_t n,
                                           const EvenCycleConfig& cfg);

/// Optional instrumentation sink (Lemma 6.1): records, across all nodes of
/// a repetition, the largest phase-I queue length ever observed and the
/// last round at which any phase-I queue went empty. Lemma 6.1 asserts
/// drain by round R1 whenever |E| <= M.
struct EvenCycleProbe {
  std::uint64_t max_phase1_queue = 0;
  std::uint64_t phase1_drained_round = 0;
  bool phase1_deadline_reject = false;
};

/// Program factory for one repetition. `probe` (optional) must outlive the
/// run.
congest::ProgramFactory even_cycle_program(const EvenCycleConfig& cfg,
                                           EvenCycleProbe* probe = nullptr);

/// Minimum bandwidth (bits) required on an n-node network.
std::uint64_t even_cycle_min_bandwidth(std::uint64_t n,
                                       const EvenCycleConfig& cfg);

/// Full detection run with amplification.
congest::RunOutcome detect_even_cycle(const Graph& g,
                                      const EvenCycleConfig& cfg,
                                      std::uint64_t bandwidth,
                                      std::uint64_t seed);

}  // namespace csd::detect
