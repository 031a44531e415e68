#include "fuzz/fuzzer.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "congest/supervisor.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/shrink.hpp"
#include "graph/vf2.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::fuzz {

namespace {

/// Ground truth + fault-free amplified verdict, computed directly (not via
/// check_case: a diverging case may bail before the oracle fills these).
CaseExpectation expectation(const FuzzCase& c) {
  const Graph host = build_graph(c);
  CaseExpectation expect;
  expect.truth = contains_subgraph(host, pattern_graph(c));
  congest::NetworkConfig cfg;
  cfg.bandwidth = effective_bandwidth(c, host);
  cfg.max_rounds = round_budget(c, host, cfg.bandwidth);
  cfg.seed = c.seed;
  congest::SupervisorConfig full;
  full.early_exit = false;
  expect.detected = congest::Supervisor(host, cfg, full)
                        .run(make_program(c), c.repetitions)
                        .outcome.detected;
  return expect;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) s[static_cast<std::size_t>(i)] =
      kDigits[value & 0xf];
  return s;
}

}  // namespace

obs::Json corpus_entry(const FuzzCase& c, const Divergence& divergence) {
  return corpus_json(c, divergence, expectation(c));
}

FuzzReport run_fuzzer(const FuzzOptions& options, std::ostream& log) {
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (options.seconds <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options.seconds;
  };

  FuzzReport report;
  log << "fuzz: seed " << options.seed << ", budget "
      << (options.seconds > 0.0 ? options.seconds : 0.0) << "s"
      << (options.max_cases ? ", max " : "")
      << (options.max_cases ? std::to_string(options.max_cases) + " cases"
                            : std::string{})
      << '\n';

  for (std::uint64_t i = 0;; ++i) {
    if (options.max_cases && i >= options.max_cases) break;
    if (out_of_time()) break;
    const std::uint64_t case_seed = derive_seed(options.seed, i);
    const FuzzCase c = generate_case(case_seed);
    ++report.cases;
    const auto divergence = check_case(c);
    if (!divergence) continue;

    log << "fuzz: case " << i << " (seed " << case_seed << ") diverged: "
        << divergence->check << " — " << divergence->detail << '\n';

    // Shrink, pinned to the same check so minimization cannot wander to a
    // different bug than the one being reported.
    const std::string check = divergence->check;
    Divergence last = *divergence;
    const CasePredicate still_fails = [&](const FuzzCase& candidate) {
      const auto d = check_case(candidate);
      if (!d || d->check != check) return false;
      last = *d;
      return true;
    };
    const FuzzCase shrunk = shrink_case(c, still_fails, options.shrink_evals);
    log << "fuzz: shrunk to " << shrunk.num_vertices << " vertices, "
        << shrunk.edges.size() << " edges, " << shrunk.repetitions
        << " repetition(s)\n";

    FuzzFailure failure;
    failure.case_seed = case_seed;
    failure.divergence = last;
    failure.shrunk = shrunk;
    if (!options.corpus_dir.empty()) {
      std::filesystem::create_directories(options.corpus_dir);
      const std::filesystem::path path =
          std::filesystem::path(options.corpus_dir) /
          (check + "-" + hex64(case_seed) + ".json");
      std::ofstream os(path);
      CSD_CHECK_MSG(os.good(), "cannot write corpus file '" << path.string()
                                                            << "'");
      corpus_entry(shrunk, last).write(os);
      os << '\n';
      failure.file = path.string();
      log << "fuzz: wrote " << failure.file << '\n';
    }
    report.failures.push_back(std::move(failure));
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  log << "fuzz: " << report.cases << " cases in " << elapsed.count()
      << "s, " << report.failures.size() << " divergence(s)\n";
  return report;
}

}  // namespace csd::fuzz
