// One differential-fuzzing test case: everything needed to reproduce a run
// bit-for-bit across every engine.
//
// A FuzzCase pins down the four independent axes of a simulator execution:
//   * the host graph (explicit edge list — no generator state, so a case
//     replays identically after the generator's distribution changes),
//   * the detection program (family + parameter + amplification count),
//   * the fault plan (drop/corrupt probabilities, header corruption,
//     scheduled crashes — applied to the async engines),
//   * the schedule (run seed and the async engine's delay bound).
// Cases serialize to the insertion-ordered obs::Json model through one
// field list (obs/codec.hpp), so a corpus file is byte-stable and diffs
// cleanly, and loading is strict: a missing, unknown or out-of-order key, a
// value the field cannot hold (n above 2^32 - 1, an unknown program name)
// or a non-canonical edge list throws CheckFailure instead of misloading.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "congest/faults.hpp"
#include "congest/program.hpp"
#include "graph/graph.hpp"
#include "obs/json.hpp"

namespace csd::fuzz {

/// Which detection program the case runs. Clique is the deterministic
/// detector (verdict must equal ground truth); the rest are one-sided
/// randomized algorithms (Reject certifies a real copy).
enum class ProgramKind : std::uint8_t {
  Clique,          ///< K_s neighborhood exchange; param = s >= 3.
  EvenCycle,       ///< Theorem 1.1 C_2k detector; param = 2k (even, >= 4).
  PipelinedCycle,  ///< folklore pipelined C_L; param = L >= 3.
  Tree,            ///< color-coding tree DP; param = tree_catalog index.
};

const char* to_string(ProgramKind kind) noexcept;

/// Small fixed catalog of tree patterns for ProgramKind::Tree (all rooted
/// at vertex 0, as tree_detect requires). Indexed by FuzzCase::param.
std::size_t tree_catalog_size() noexcept;
Graph tree_catalog(std::size_t index);

struct FuzzCase {
  // -- host graph -----------------------------------------------------------
  std::uint32_t num_vertices = 3;
  /// Undirected edges (u, v) with u < v, sorted — the canonical form
  /// Graph::edges() returns, so JSON round-trips are byte-stable.
  std::vector<std::pair<Vertex, Vertex>> edges;

  // -- detection program ----------------------------------------------------
  ProgramKind program = ProgramKind::Clique;
  std::uint32_t param = 3;
  /// Amplification repetitions (forced to 1 for the deterministic clique).
  std::uint32_t repetitions = 1;
  /// Per-edge bandwidth; 0 = use the program's minimum. Values below the
  /// minimum are clamped up by effective_bandwidth (the programs CHECK).
  std::uint64_t bandwidth = 0;

  // -- schedule -------------------------------------------------------------
  std::uint64_t seed = 1;
  /// Async link-delay bound (frames draw delays in [1, max_delay]).
  std::uint32_t max_delay = 4;

  // -- fault plan (async engines; drop/corrupt also apply to sync) ----------
  double drop = 0.0;
  double corrupt = 0.0;
  bool corrupt_headers = false;
  std::vector<congest::CrashEvent> crashes;

  bool has_faults() const noexcept {
    return drop > 0.0 || corrupt > 0.0 || !crashes.empty();
  }

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

/// Materialize the host graph (sorted adjacency, deterministic iteration).
Graph build_graph(const FuzzCase& c);

/// The pattern the case's program searches for (K_s, C_L, or the catalog
/// tree) — the VF2 ground-truth target.
Graph pattern_graph(const FuzzCase& c);

/// Program factory for one repetition of the case's algorithm.
congest::ProgramFactory make_program(const FuzzCase& c);

/// `factory`'s programs behind a NodeApi forwarder that drops every
/// NodeApi::sleep_until call (the base no-op): the kernel sees no activity
/// hint and calls on_round in every round. The hint-ignoring reference the
/// hint-equivalence oracle and the ActivityHint tests compare against.
congest::ProgramFactory ignore_activity_hints(congest::ProgramFactory factory);

/// max(c.bandwidth, the program's minimum on this host size).
std::uint64_t effective_bandwidth(const FuzzCase& c, const Graph& host);

/// Round/pulse budget a single repetition needs (mirrors the CLI: the
/// program's own budget helper plus slack).
std::uint64_t round_budget(const FuzzCase& c, const Graph& host,
                           std::uint64_t bandwidth);

/// The case's FaultPlan (drop/corrupt/corrupt_headers/crashes).
congest::FaultPlan fault_plan(const FuzzCase& c);

/// The invariant a case violated (check_case, differential.hpp).
struct Divergence {
  /// Stable short identifier of the violated invariant (used in corpus
  /// file names and for shrinking "same bug" decisions).
  std::string check;
  /// Human-readable specifics: which engine, which field, which values.
  std::string detail;
};

/// Ground truth + the recorded verdict a corpus entry pins down.
struct CaseExpectation {
  /// VF2: does the host contain the pattern at all?
  bool truth = false;
  /// Fault-free amplified sync verdict (early exit off — the full cost).
  bool detected = false;
};

/// One case as a csd-fuzz-case-v1 JSON object, and its strict inverse.
obs::Json to_json(const FuzzCase& c);
FuzzCase case_from_json(const obs::Json& j);

/// A csd-fuzz-case-v1 corpus file: the case with the divergence that found
/// it and the expectation recorded for it (layout: the field lists in
/// fuzz_case.cpp).
obs::Json corpus_json(const FuzzCase& c, const Divergence& found,
                      const CaseExpectation& expect);

/// Parse a corpus file as strictly as case_from_json; `expect`/`found`
/// receive the recorded expectation and original finding when non-null.
FuzzCase corpus_case(const obs::Json& doc, CaseExpectation* expect = nullptr,
                     Divergence* found = nullptr);

}  // namespace csd::fuzz
