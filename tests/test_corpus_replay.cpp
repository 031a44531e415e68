// Replays every committed corpus entry (tests/corpus/*.json).
//
// Each entry is a shrunk case some fuzzing campaign once found a divergence
// on. With the corresponding bugs fixed, replaying the case through the
// full differential oracle must find nothing, and the engines must
// reproduce the recorded ground truth and fault-free verdict — so the
// corpus doubles as a regression suite: reintroducing any of the fixed
// bugs makes its entry fail here deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/differential.hpp"
#include "fuzz/fuzzer.hpp"
#include "obs/json.hpp"

namespace csd::fuzz {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir(CSD_CORPUS_DIR);
  if (std::filesystem::exists(dir))
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      if (entry.path().extension() == ".json")
        files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

class CorpusReplay : public testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, ReplaysCleanAndReproducesRecordedVerdict) {
  std::ifstream is(GetParam());
  ASSERT_TRUE(is.good()) << "cannot open " << GetParam();
  std::stringstream buffer;
  buffer << is.rdbuf();

  CaseExpectation recorded;
  Divergence original;
  const FuzzCase c =
      corpus_case(obs::Json::parse(buffer.str()), &recorded, &original);

  // The bug this entry pinned down is fixed: the full oracle is clean.
  CaseExpectation now;
  const auto divergence = check_case(c, &now);
  EXPECT_FALSE(divergence.has_value())
      << "regression of '" << original.check << "': " << divergence->check
      << " — " << divergence->detail;

  // And the engines reproduce the recorded ground truth + verdict.
  EXPECT_EQ(now.truth, recorded.truth);
  EXPECT_EQ(now.detected, recorded.detected);
}

// The committed files are exactly what the writer produces for what the
// reader loads from them, byte for byte.
TEST_P(CorpusReplay, ReserializesByteForByte) {
  std::ifstream is(GetParam());
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string bytes = buffer.str();
  EXPECT_EQ(obs::Json::parse(bytes).dump() + "\n", bytes);
  CaseExpectation expect;
  Divergence found;
  const FuzzCase c = corpus_case(obs::Json::parse(bytes), &expect, &found);
  EXPECT_EQ(corpus_json(c, found, expect).dump() + "\n", bytes);
}

std::string test_name(const testing::TestParamInfo<std::string>& info) {
  std::string name = std::filesystem::path(info.param).stem().string();
  for (char& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         testing::ValuesIn(corpus_files()), test_name);

// An empty corpus directory must not fail the suite (gtest would otherwise
// flag the uninstantiated parameterized test).
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(CorpusReplay);

}  // namespace
}  // namespace csd::fuzz
