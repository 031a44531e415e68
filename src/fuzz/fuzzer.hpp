// Differential fuzzing campaign driver.
//
// run_fuzzer draws cases from the seeded generator (case i uses
// derive_seed(master_seed, i)), runs each through the differential oracle,
// and on a divergence minimizes the case with the delta-debugging shrinker
// (pinned to the same check id, so shrinking never wanders to a different
// bug) and serializes the shrunk case to a replayable csd-fuzz-case-v1
// corpus file (fuzz_case.hpp). Its `expect` block records the VF2 ground
// truth and the fault-free amplified sync verdict of the *shrunk* case, so
// the corpus replay test can assert the fixed engines reproduce them.
// File names are deterministic (<check>-<case-seed-hex>.json): re-running a
// campaign overwrites its own artifacts instead of accumulating duplicates.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/differential.hpp"
#include "fuzz/fuzz_case.hpp"

namespace csd::fuzz {

struct FuzzOptions {
  /// Wall-clock budget; the campaign stops at the first case boundary past
  /// it. <= 0 means no time budget (use max_cases).
  double seconds = 30.0;
  /// Master seed; the whole campaign is a pure function of it (plus the
  /// case count actually reached within the time budget).
  std::uint64_t seed = 1;
  /// Hard cap on cases (0 = unlimited within the time budget).
  std::uint64_t max_cases = 0;
  /// Directory for shrunk failing cases; empty = don't write files.
  std::string corpus_dir;
  /// Predicate-evaluation budget per shrink.
  std::uint32_t shrink_evals = 300;
};

struct FuzzFailure {
  std::uint64_t case_seed = 0;
  Divergence divergence;
  FuzzCase shrunk;
  /// Corpus file path ("" when corpus_dir was empty).
  std::string file;
};

struct FuzzReport {
  std::uint64_t cases = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const noexcept { return failures.empty(); }
};

/// Serialize one failing (typically shrunk) case as a corpus file, with the
/// expectation computed for it.
obs::Json corpus_entry(const FuzzCase& c, const Divergence& divergence);

/// Run a campaign. Progress and findings go to `log` (one line per event).
FuzzReport run_fuzzer(const FuzzOptions& options, std::ostream& log);

}  // namespace csd::fuzz
