// Tests for graph serialization (edge list, DIMACS) and the `csd` CLI
// (driven in-process through csd::cli::run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "congest/snapshot.hpp"
#include "graph/builders.hpp"
#include "graph/io.hpp"
#include "obs/json.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tools/cli.hpp"

namespace csd {
namespace {

// --------------------------------------------------------------------- io --
TEST(GraphIo, EdgeListRoundTrip) {
  Rng rng(3);
  const Graph g = build::gnp(25, 0.2, rng);
  std::stringstream ss;
  io::write_edge_list(ss, g);
  const Graph back = io::read_edge_list(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(GraphIo, DimacsRoundTrip) {
  const Graph g = build::petersen();
  std::stringstream ss;
  io::write_dimacs(ss, g);
  const Graph back = io::read_dimacs(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(GraphIo, ReadAnyDetectsBothFormats) {
  const Graph g = build::grid(3, 4);
  {
    std::stringstream ss;
    io::write_edge_list(ss, g);
    EXPECT_EQ(io::read_any(ss).edges(), g.edges());
  }
  {
    std::stringstream ss;
    io::write_dimacs(ss, g);
    EXPECT_EQ(io::read_any(ss).edges(), g.edges());
  }
}

TEST(GraphIo, CommentsAndBlankLinesSkipped) {
  std::stringstream ss(
      "# a comment\n\n3 2\nc another comment\n0 1\n\n1 2\n");
  const Graph g = io::read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, MalformedInputsRejectedWithLineNumbers) {
  const auto expect_failure = [](const std::string& content,
                                 const std::string& needle) {
    std::stringstream ss(content);
    try {
      io::read_edge_list(ss);
      FAIL() << "expected parse failure for: " << content;
    } catch (const CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what()).find(needle), std::string::npos)
          << failure.what();
    }
  };
  expect_failure("", "empty");
  expect_failure("3\n", "two");
  expect_failure("3 2\n0 1\n", "expected 2 edges");
  expect_failure("3 1\n0 7\n", "out of range");
  expect_failure("3 1\n0 1 9\n", "trailing");
  expect_failure("2 1\n0 1\n0 1\n", "trailing content");
}

TEST(GraphIo, DimacsValidatesHeaderAndRange) {
  std::stringstream bad_header("q edge 3 1\ne 1 2\n");
  EXPECT_THROW(io::read_dimacs(bad_header), CheckFailure);
  std::stringstream zero_based("p edge 3 1\ne 0 1\n");
  EXPECT_THROW(io::read_dimacs(zero_based), CheckFailure);
  // The edge-list reader's rules: a header that understates m, or a line
  // with a token left over, fails naming the line instead of reading a
  // different graph.
  const auto expect_failure = [](const std::string& content,
                                 const std::string& needle) {
    std::stringstream ss(content);
    try {
      io::read_dimacs(ss);
      FAIL() << "expected parse failure for: " << content;
    } catch (const CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what()).find(needle), std::string::npos)
          << failure.what();
    }
  };
  expect_failure("p edge 3 1\ne 1 2\ne 2 3\ne 1 3\n",
                 "line 3: trailing content after the 1 edges");
  expect_failure("p edge 3 1\ne 1 2 7\n", "line 2: trailing tokens");
  expect_failure("p edge 3 1 1\ne 1 2\n", "line 1: trailing tokens");
  expect_failure("p edge 3 2\ne 1 2\n", "expected 2 edges");
  // Only the 'edge' problem kind describes a graph.
  expect_failure("p foo 3 2\ne 1 2\ne 2 3\n", "line 1: problem kind 'foo'");
  // Comments and blank lines after the last edge are not content.
  std::stringstream commented("p edge 3 1\ne 1 2\nc done\n\n");
  EXPECT_EQ(io::read_dimacs(commented).num_edges(), 1u);
}

TEST(GraphIo, SaveAndLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "csd_io_test.graph").string();
  const Graph g = build::cycle(9);
  io::save(path, g, /*dimacs=*/true);
  const Graph back = io::load(path);
  EXPECT_EQ(back.edges(), g.edges());
  std::remove(path.c_str());
  EXPECT_THROW(io::load("/nonexistent/definitely/missing"), CheckFailure);
}

// -------------------------------------------------------------------- cli --
int run_cli(const std::vector<std::string>& args, std::string* out_text) {
  std::ostringstream out, err;
  const int code = cli::run(args, out, err);
  if (out_text != nullptr) *out_text = out.str() + err.str();
  return code;
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string text;
  EXPECT_EQ(run_cli({"help"}, &text), 0);
  EXPECT_NE(text.find("usage"), std::string::npos);
  EXPECT_EQ(run_cli({"definitely-not-a-command"}, &text), 1);
  EXPECT_EQ(run_cli({}, &text), 1);
}

TEST(Cli, GenerateToStdout) {
  std::string text;
  EXPECT_EQ(run_cli({"generate", "cycle", "5"}, &text), 0);
  EXPECT_EQ(text.substr(0, 4), "5 5\n");
  EXPECT_EQ(run_cli({"generate", "petersen", "--dimacs"}, &text), 0);
  EXPECT_NE(text.find("p edge 10 15"), std::string::npos);
}

TEST(Cli, GenerateStatsDetectPipeline) {
  const auto path =
      (std::filesystem::temp_directory_path() / "csd_cli_test.graph").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "24", "25", "9", "--out", path},
                    &text),
            0);
  EXPECT_NE(text.find("wrote"), std::string::npos);

  ASSERT_EQ(run_cli({"stats", path}, &text), 0);
  EXPECT_NE(text.find("vertices:    24"), std::string::npos);

  ASSERT_EQ(run_cli({"detect", "triangle", path}, &text), 0);
  const bool says_reject = text.find("REJECT") != std::string::npos;
  const bool says_present = text.find("pattern present") != std::string::npos;
  EXPECT_EQ(says_reject, says_present);  // verdict agrees with the oracle
  EXPECT_EQ(text.find("WARNING"), std::string::npos);

  ASSERT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "300"}, &text),
            0);
  EXPECT_NE(text.find("Theorem 1.1"), std::string::npos);

  ASSERT_EQ(run_cli({"list-cliques", "3", path}, &text), 0);
  EXPECT_NE(text.find("K_3 copies"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, DetectStarPattern) {
  const auto path =
      (std::filesystem::temp_directory_path() / "csd_cli_star.graph").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "grid", "4", "4", "--out", path}, &text), 0);
  ASSERT_EQ(run_cli({"detect", "star", "4", path, "--reps", "400"}, &text),
            0);
  EXPECT_NE(text.find("REJECT"), std::string::npos);  // inner nodes have deg 4
  ASSERT_EQ(run_cli({"detect", "star", "5", path}, &text), 0);
  EXPECT_NE(text.find("pattern absent"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, DetectOddCycleUsesBaseline) {
  const auto path =
      (std::filesystem::temp_directory_path() / "csd_cli_c5.graph").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "complete", "7", "--out", path}, &text), 0);
  ASSERT_EQ(run_cli({"detect", "cycle", "5", path, "--reps", "200"}, &text),
            0);
  EXPECT_NE(text.find("pipelined"), std::string::npos);
  EXPECT_NE(text.find("REJECT"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, FoolReportsThresholdBehaviour) {
  std::string text;
  ASSERT_EQ(run_cli({"fool", "24", "2"}, &text), 0);
  EXPECT_NE(text.find("fooled:  YES"), std::string::npos);
  ASSERT_EQ(run_cli({"fool", "24", "3"}, &text), 0);
  EXPECT_NE(text.find("box found:         no"), std::string::npos);
}

TEST(Cli, DimacsInputThatHidesEdgesExitsTwo) {
  // A triangle under a header declaring one edge: reading only that edge
  // would accept a graph that contains the pattern, and the oracle would
  // agree, since it reads the same truncated graph.
  const auto path =
      (std::filesystem::temp_directory_path() / "csd_cli_dimacs.graph")
          .string();
  std::string text;
  for (const char* content : {"p edge 3 1\ne 1 2\ne 2 3\ne 1 3\n",
                              "p edge 3 3\ne 1 2 7\ne 2 3\ne 1 3\n"}) {
    std::ofstream(path) << content;
    EXPECT_EQ(run_cli({"detect", "triangle", path}, &text), 2) << content;
    EXPECT_NE(text.find("trailing"), std::string::npos) << text;
    EXPECT_EQ(text.find("verdict"), std::string::npos) << text;
  }
  std::ofstream(path) << "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n";
  EXPECT_EQ(run_cli({"detect", "triangle", path}, &text), 0);
  EXPECT_NE(text.find("REJECT"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Cli, ErrorsProduceExitCodeTwo) {
  std::string text;
  EXPECT_EQ(run_cli({"stats", "/no/such/file"}, &text), 2);
  EXPECT_NE(text.find("error:"), std::string::npos);
  EXPECT_EQ(run_cli({"generate", "cycle"}, &text), 2);  // missing N
  EXPECT_EQ(run_cli({"generate", "gnp", "x", "y", "z"}, &text), 2);
}

/// K_6 written to a temp file for the 32-bit overflow tests below.
std::string write_k6(const char* name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::string text;
  EXPECT_EQ(run_cli({"generate", "complete", "6", "--out", path}, &text), 0);
  return path;
}

// 32-bit CLI integers are range-checked: a value above 4294967295 exits 2
// instead of running as its value modulo 2^32.
TEST(Cli, PatternSizeAbove32BitsIsRejected) {
  const std::string path = write_k6("csd_cli_u32_cycle.txt");
  std::string text;
  EXPECT_EQ(run_cli({"detect", "cycle", "4294967300", path}, &text), 2);
  EXPECT_NE(text.find("exceeds 4294967295"), std::string::npos) << text;
  EXPECT_EQ(text.find("accept"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Cli, CrashNodeAbove32BitsIsRejected) {
  const std::string path = write_k6("csd_cli_u32_crash.txt");
  std::string text;
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--crash", "4294967296:0"},
                    &text),
            2);
  EXPECT_NE(text.find("crash node"), std::string::npos) << text;
  EXPECT_EQ(text.find("accept"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Cli, WorkerCountAbove32BitsIsRejected) {
  const std::string path = write_k6("csd_cli_u32_workers.txt");
  std::string text;
  EXPECT_EQ(
      run_cli({"detect", "triangle", path, "--workers", "4294967296"}, &text),
      2);
  EXPECT_NE(text.find("workers"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Cli, DetectWithFaultFlagsRunsAsyncEngine) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "csd_cli_faults.txt").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "16", "30", "7", "--out", path},
                    &text),
            0);

  // Reliable transport under heavy faults: run completes, report populated.
  ASSERT_EQ(run_cli({"detect", "triangle", path, "--drop", "0.3", "--corrupt",
                     "0.05", "--transport", "reliable"},
                    &text),
            0);
  EXPECT_NE(text.find("reliable transport"), std::string::npos);
  EXPECT_NE(text.find("completed:  yes"), std::string::npos);
  EXPECT_NE(text.find("retransmissions"), std::string::npos);

  // Raw transport with a crash: no hang, crash recorded in the report.
  ASSERT_EQ(run_cli({"detect", "triangle", path, "--drop", "0.4", "--crash",
                     "2:0", "--transport", "raw"},
                    &text),
            0);
  EXPECT_NE(text.find("raw transport"), std::string::npos);
  EXPECT_NE(text.find("crashed nodes:      2"), std::string::npos);

  // Validation: bad probability / crash syntax / transport name.
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--drop", "1.5"}, &text), 2);
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--crash", "5"}, &text), 2);
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--transport", "tcp"},
                    &text),
            2);
  std::remove(path.c_str());
}

TEST(Cli, DetectValidatesFaultFlagEdges) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "csd_cli_val.txt").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "16", "30", "7", "--out", path},
                    &text),
            0);

  // Crash node outside the topology.
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--crash", "99:1"}, &text),
            2);
  EXPECT_NE(text.find("but the graph has 16 nodes"), std::string::npos);
  // Crash round past the round cap: the event could never fire.
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--crash", "2:100000"},
                    &text),
            2);
  EXPECT_NE(text.find("would never fire"), std::string::npos);
  // Probabilities outside [0,1] and malformed numbers.
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--corrupt", "-0.5"}, &text),
            2);
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--drop", "zero"}, &text), 2);
  // --reps 0 is meaningless for every path.
  EXPECT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "0"}, &text), 2);
  EXPECT_EQ(run_cli({"sweep", "cycle", "4", "--reps", "0", "--sizes", "8"},
                    &text),
            2);
  // Checkpoint flags must come in a pair.
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--checkpoint", "/tmp/x"},
                    &text),
            2);
  EXPECT_NE(text.find("--checkpoint-at"), std::string::npos);
  std::remove(path.c_str());

  // A zero-node graph is rejected before any engine runs.
  const std::string empty_path =
      (std::filesystem::temp_directory_path() / "csd_cli_empty.txt").string();
  std::ofstream(empty_path) << "0 0\n";
  EXPECT_EQ(run_cli({"detect", "triangle", empty_path}, &text), 2);
  EXPECT_NE(text.find("no vertices"), std::string::npos);
  std::remove(empty_path.c_str());
}

TEST(Cli, DetectCheckpointResumeMatchesUninterruptedRun) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_ckpt.graph").string();
  const std::string ckpt = (dir / "csd_cli_ckpt.json").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "16", "30", "7", "--out", path},
                    &text),
            0);
  const std::vector<std::string> base = {"detect",      "triangle", path,
                                         "--drop",      "0.2",      "--transport",
                                         "reliable"};

  std::string full;
  ASSERT_EQ(run_cli(base, &full), 0);

  auto with = base;
  with.insert(with.end(), {"--checkpoint", ckpt, "--checkpoint-at", "2"});
  ASSERT_EQ(run_cli(with, &text), 0);
  EXPECT_NE(text.find("checkpoint: " + ckpt), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  auto resumed = base;
  resumed.insert(resumed.end(), {"--resume", ckpt});
  ASSERT_EQ(run_cli(resumed, &text), 0);
  EXPECT_NE(text.find("resumed:    " + ckpt), std::string::npos);
  // The resumed run reports the very same verdict, accounting, and fault
  // report as the uninterrupted one: compare everything from "verdict:" on.
  const auto tail = [](const std::string& s) {
    const auto at = s.find("verdict:");
    return at == std::string::npos ? s : s.substr(at);
  };
  EXPECT_EQ(tail(text), tail(full));
  std::remove(path.c_str());
  std::remove(ckpt.c_str());
}

TEST(Cli, DetectRecoverRestoresCrashedNodeAndSurfacesCounters) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_rec.graph").string();
  const std::string trace = (dir / "csd_cli_rec.jsonl").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "16", "30", "7", "--out", path},
                    &text),
            0);
  ASSERT_EQ(run_cli({"detect", "triangle", path, "--crash", "2:1",
                     "--transport", "reliable", "--recover", "--rejoin-delay",
                     "1", "--trace", trace},
                    &text),
            0);
  EXPECT_NE(text.find("crash recovery on"), std::string::npos);
  EXPECT_NE(text.find("completed:  yes"), std::string::npos);
  EXPECT_NE(text.find("crashed nodes:      2"), std::string::npos);
  EXPECT_NE(text.find("recovered nodes:    2"), std::string::npos);
  EXPECT_NE(text.find("replayed pulses:    1"), std::string::npos);

  // The recovery counters ride the trace summary (nonzero-only) into
  // `csd analyze`.
  ASSERT_EQ(run_cli({"analyze", trace}, &text), 0);
  EXPECT_NE(text.find("crashed_nodes=1"), std::string::npos);
  EXPECT_NE(text.find("recovered_nodes=1"), std::string::npos);
  EXPECT_NE(text.find("replayed_pulses=1"), std::string::npos);
  std::remove(path.c_str());
  std::remove(trace.c_str());
}

TEST(Cli, WatchdogDeadlinePastTheEndOfTheClockNeverFires) {
  // last progress + window (sync), and window × RTO (async), used to wrap
  // and fire the watchdog at once: 60 nodes "stalled" at round 1, and a
  // reliable run cut short as incomplete.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_wd.graph").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "60", "10", "3", "--out", path},
                    &text),
            0);
  const auto sync_run = [&](const std::string& window) {
    std::string out;
    EXPECT_EQ(run_cli({"detect", "triangle", path, "--supervised",
                       "--stall-window", window, "--reps", "1", "--seed", "9"},
                      &out),
              0);
    return out;
  };
  const std::string never = sync_run("18446744073709551615");
  EXPECT_NE(never.find("REJECT"), std::string::npos) << never;
  EXPECT_EQ(never, sync_run("1000"));

  const std::vector<std::string> async_run = {
      "detect", "triangle", path,  "--drop", "0.1", "--transport",
      "reliable", "--reps", "1", "--seed", "9"};
  std::string plain;
  ASSERT_EQ(run_cli(async_run, &plain), 0);
  std::vector<std::string> windowed = async_run;
  windowed.insert(windowed.end(), {"--stall-window", "922337203685477581"});
  ASSERT_EQ(run_cli(windowed, &text), 0);
  EXPECT_NE(text.find("completed:  yes"), std::string::npos) << text;
  EXPECT_EQ(text, plain);
  std::remove(path.c_str());
}

TEST(Cli, RejoinPastTheEndOfVirtualTimeExitsTwo) {
  // local time + rejoin delay used to wrap, so the node rejoined at once.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_rejoin.graph").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "60", "10", "3", "--out", path},
                    &text),
            0);
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--crash", "3:2",
                     "--recover", "--rejoin-delay", "18446744073709551615",
                     "--reps", "1", "--seed", "9"},
                    &text),
            2);
  EXPECT_NE(text.find("--rejoin-delay"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Cli, DetectSupervisedSliceResumeAndStallReports) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_sup.graph").string();
  const std::string ckpt = (dir / "csd_cli_sup.json").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "path", "12", "--out", path}, &text), 0);

  // Slice 1: merge 2 of 4 repetitions, pause, checkpoint.
  ASSERT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "4",
                     "--supervised", "--max-reps-per-call", "2",
                     "--checkpoint", ckpt},
                    &text),
            0);
  EXPECT_NE(text.find("2 executed, 2 skipped (of 4 planned)"),
            std::string::npos);
  EXPECT_NE(text.find("paused:"), std::string::npos);
  EXPECT_NE(text.find("checkpoint: " + ckpt), std::string::npos);

  // Slice 2: resume finishes the batch; the control host stays clean.
  ASSERT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "4",
                     "--supervised", "--resume", ckpt},
                    &text),
            0);
  EXPECT_NE(text.find("resumed:    " + ckpt), std::string::npos);
  EXPECT_NE(text.find("4 executed, 0 skipped (of 4 planned)"),
            std::string::npos);
  EXPECT_NE(text.find("verdict:    accept"), std::string::npos);

  // A slice that pauses is only resumable from its checkpoint file, so
  // --max-reps-per-call without --checkpoint is an error before any run.
  EXPECT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "4",
                     "--max-reps-per-call", "1"},
                    &text),
            2);
  EXPECT_NE(text.find("--max-reps-per-call needs --checkpoint FILE"),
            std::string::npos)
      << text;

  // A one-round budget flags every repetition in a structured StallReport.
  ASSERT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "2",
                     "--supervised", "--round-budget", "1"},
                    &text),
            0);
  EXPECT_NE(text.find("stalls:     2"), std::string::npos);
  EXPECT_NE(text.find("[over-budget]"), std::string::npos);
  std::remove(path.c_str());
  std::remove(ckpt.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

// A damaged checkpoint exits 2 naming the key instead of resuming into a
// plausible wrong answer: here, the Reject the first slice found, and a
// Reject nothing found.
TEST(Cli, DamagedCheckpointsExitTwoNamingTheKey) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_damaged.graph").string();
  const std::string ckpt = (dir / "csd_cli_damaged.json").string();
  const std::string copy = (dir / "csd_cli_damaged_copy.json").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnm", "200", "230", "1", "--out", path},
                    &text),
            0);
  const std::vector<std::string> base = {
      "detect", "cycle", "4", path, "--reps", "3", "--supervised", "--seed",
      "7"};
  auto first = base;
  first.insert(first.end(), {"--max-reps-per-call", "1", "--checkpoint", ckpt});
  ASSERT_EQ(run_cli(first, &text), 0);
  auto resume = base;
  resume.insert(resume.end(), {"--resume", copy});

  std::string intact = read_file(ckpt);
  std::ofstream(copy) << intact;
  ASSERT_EQ(run_cli(resume, &text), 0);
  EXPECT_NE(text.find("verdict:    REJECT"), std::string::npos);
  EXPECT_NE(text.find("1 executed, 2 skipped (of 3 planned)"),
            std::string::npos);

  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string bytes = intact;
    const auto at = bytes.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? bytes : bytes.replace(at, from.size(), to);
  };
  const std::pair<std::string, std::string> damaged[] = {
      {edit("\"detected\": 1,", "\"detected\": 256,"), "'detected'"},
      {edit("\"detected\": 1,", "\"detected\": 1,\n  \"detected\": 0,"),
       "'detected'"},
      {edit("\"repetitions\": 3,", "\"repetitions\": 4294967299,"),
       "'repetitions'"},
      {edit("\"rounds\":", "\"bogus\": 0,\n  \"rounds\":"), "'bogus'"},
      // A resume point past the plan would underflow the count of
      // repetitions left to run.
      {edit("\"next_repetition\": 1,", "\"next_repetition\": 9,"),
       "'next_repetition'"},
      // Accounting no Supervisor writes: every repetition before the
      // resume point was executed, none skipped, and 'detected' is the OR
      // of the verdicts.
      {edit("\"repetitions_executed\": 1,", "\"repetitions_executed\": 9,"),
       "'repetitions_executed'"},
      {edit("\"repetitions_skipped\": 0,", "\"repetitions_skipped\": 2,"),
       "'repetitions_skipped'"},
      {edit("\"detected\": 1,", "\"detected\": 0,"), "'detected'"},
  };
  for (const auto& [bytes, key] : damaged) {
    std::ofstream(copy) << bytes;
    EXPECT_EQ(run_cli(resume, &text), 2) << bytes;
    EXPECT_NE(text.find(key), std::string::npos) << text;
  }

  // On a C_4-free tree the slice accepts; a 'detected' set to 1 would
  // resume into a false positive.
  ASSERT_EQ(run_cli({"generate", "tree", "64", "3", "--out", path}, &text),
            0);
  ASSERT_EQ(run_cli(first, &text), 0);
  intact = read_file(ckpt);
  std::ofstream(copy) << edit("\"detected\": 0,", "\"detected\": 1,");
  EXPECT_EQ(run_cli(resume, &text), 2);
  EXPECT_NE(text.find("'detected'"), std::string::npos) << text;

  // csd-ckpt-v1 has two kinds, async and amplified: an async checkpoint
  // relabelled "sync" is refused for its kind, not for the state under it.
  std::ofstream(path) << "6 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n";
  const std::vector<std::string> async_base = {
      "detect", "triangle", path,          "--seed",
      "7",      "--drop",   "0.2",         "--transport",
      "reliable"};
  auto async_first = async_base;
  async_first.insert(async_first.end(),
                     {"--checkpoint", ckpt, "--checkpoint-at", "2"});
  ASSERT_EQ(run_cli(async_first, &text), 0);
  auto async_resume = async_base;
  async_resume.insert(async_resume.end(), {"--resume", copy});
  intact = read_file(ckpt);
  std::ofstream(copy) << edit("\"kind\": \"async\",", "\"kind\": \"sync\",");
  EXPECT_EQ(run_cli(async_resume, &text), 2);
  EXPECT_NE(text.find("key 'kind'"), std::string::npos) << text;
  std::remove(path.c_str());
  std::remove(ckpt.c_str());
  std::remove(copy.c_str());
}

// A clean (--drop 0) async run is the sync run at every --reps, --reps 1
// included: both engines seed repetition r with repetition_seed(seed, r),
// so the verdict agrees, pulses equal rounds and payload bits equal total
// bits.
TEST(Cli, CleanAsyncRunReproducesTheSyncRunAtOneRepetition) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_async_one.graph").string();
  const std::string json = (dir / "csd_cli_async_one.json").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "gnp", "40", "20", "3", "--out", path},
                    &text),
            0);
  const auto values = [&](std::vector<std::string> args) {
    args.insert(args.end(), {"--json", json});
    EXPECT_EQ(run_cli(args, &text), 0) << text;
    return obs::Json::parse(read_file(json))
        .at("measurements")
        .items()[0]
        .at("values");
  };
  for (const std::string len : {"4", "5"}) {
    const std::vector<std::string> sync_args = {
        "detect", "cycle", len, path, "--reps", "1", "--seed", "1"};
    auto async_args = sync_args;
    async_args.insert(async_args.end(), {"--drop", "0"});
    const obs::Json sync = values(sync_args);
    const obs::Json async = values(async_args);
    EXPECT_EQ(async.at("verdict").as_string(), sync.at("verdict").as_string())
        << "cycle " << len;
    EXPECT_EQ(async.at("pulses").as_uint(), sync.at("rounds").as_uint())
        << "cycle " << len;
    EXPECT_EQ(async.at("payload_bits").as_uint(),
              sync.at("total_bits").as_uint())
        << "cycle " << len;
  }
  std::remove(path.c_str());
  std::remove(json.c_str());
}

// Replay hands an inbox-log row to its node port by port, so a row with
// more entries than the node has ports must exit 2 naming the key before
// any replay, not write past the node's inbox slots (the last of which
// sit next to the following node's in the frame arena).
TEST(Cli, ResumeRejectsAnInboxRowWiderThanItsNode) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_wide.txt").string();
  const std::string ckpt = (dir / "csd_cli_wide.json").string();
  const std::string copy = (dir / "csd_cli_wide_copy.json").string();
  std::ofstream(path) << "6 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n";
  const std::vector<std::string> base = {
      "detect", "triangle", path,          "--seed",
      "7",      "--drop",   "0.2",         "--transport",
      "reliable"};
  auto first = base;
  first.insert(first.end(), {"--checkpoint", ckpt, "--checkpoint-at", "2"});
  std::string text;
  ASSERT_EQ(run_cli(first, &text), 0);
  auto resume = base;
  resume.insert(resume.end(), {"--resume", copy});

  for (const std::size_t extra : {std::size_t{1}, std::size_t{5000}}) {
    congest::Snapshot snap = congest::load_snapshot(ckpt);
    // The node the frozen run logged two pulses of inbox for; which one
    // that is depends on the run's delays and drops.
    auto& nodes = snap.async_state.nodes;
    const auto logged =
        std::find_if(nodes.begin(), nodes.end(),
                     [](const auto& node) { return node.inbox.size() >= 2; });
    ASSERT_NE(logged, nodes.end());
    auto& row = logged->inbox.at(1);
    ASSERT_EQ(row.size(), 3u);  // the node's degree: it sits in the K_4
    BitVec payload;
    payload.append_bits(3, 2);
    row.insert(row.end(), extra, payload);
    congest::save_snapshot(copy, snap);
    EXPECT_EQ(run_cli(resume, &text), 2) << extra;
    EXPECT_NE(text.find("key 'inbox'"), std::string::npos) << text;
    EXPECT_EQ(text.find("verdict"), std::string::npos) << text;
  }
  std::remove(path.c_str());
  std::remove(ckpt.c_str());
  std::remove(copy.c_str());
}

// `csd postmortem` over a dump and a series written by hand: every
// csd-postmortem-v1 field and the text report hold the values worked out
// from the input. The dump instant is t = 1000000 ms; the default 30 s
// window starts at 970000 ms and includes an event stamped exactly there.
class Postmortem : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs the cases in parallel: one set of files per case.
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         (std::string("csd_pm_") +
          testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    dump_ = stem + "_dump.json";
    series_ = stem + "_series.jsonl";
    json_ = stem + "_summary.json";
    std::ofstream(dump_) << R"({
  "schema": "csd-blackbox-v1",
  "reason": "stall-report",
  "epoch_ms": 1000000,
  "events_recorded": 7,
  "events_kept": 5,
  "torn": 1,
  "events": [
    {"kind": "node_crash", "actor": 1, "at": 0, "value": 0,
     "epoch_ms": 960000},
    {"kind": "frame_dropped", "actor": 2, "at": 3, "value": 0,
     "epoch_ms": 970000},
    {"kind": "frame_dropped", "actor": 0, "at": 4, "value": 0,
     "epoch_ms": 969999},
    {"kind": "watchdog_stall", "actor": 0, "at": 9, "value": 4,
     "epoch_ms": 999500},
    {"kind": "stall_report", "actor": 0, "at": 9, "value": 2,
     "epoch_ms": 1000250}
  ],
  "metrics": {
    "counters": {"sync_rounds": 9, "sync_watchdog_stalls": 1},
    "gauges": {},
    "histograms": {}
  }
}
)";
    std::ofstream series(series_);
    for (const auto& [index, epoch] :
         {std::pair{0, 998000}, {1, 999000}, {2, 1000100}})
      series << R"({"schema":"csd-metrics-v2","sample":)" << index
             << R"(,"epoch_ms":)" << epoch
             << R"(,"events_recorded":4,"counters":{"sync_rounds":)"
             << 3 * (index + 1)
             << R"(},"gauges":{},"histograms":{}})" << '\n';
  }

  void TearDown() override {
    std::remove(dump_.c_str());
    std::remove(series_.c_str());
    std::remove(json_.c_str());
  }

  /// The --json summary for `--last last` (default window when empty).
  obs::Json summary(const std::string& last) {
    std::vector<std::string> args = {"postmortem", dump_, "--series",
                                     series_, "--json", json_};
    if (!last.empty()) args.insert(args.end(), {"--last", last});
    std::string text;
    EXPECT_EQ(run_cli(args, &text), 0) << text;
    return obs::Json::parse(read_file(json_));
  }

  std::string dump_, series_, json_;
};

TEST_F(Postmortem, JsonSummaryHoldsTheHandComputedValues) {
  const obs::Json doc = summary("");
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "schema", "reason", "epoch_ms", "events_recorded",
                      "events_kept", "torn", "window_seconds",
                      "events_in_window", "event_counts", "counters",
                      "series_samples", "series_span_ms"}));
  EXPECT_EQ(doc.at("schema").as_string(), "csd-postmortem-v1");
  EXPECT_EQ(doc.at("reason").as_string(), "stall-report");
  EXPECT_EQ(doc.at("epoch_ms").as_uint(), 1000000u);
  EXPECT_EQ(doc.at("events_recorded").as_uint(), 7u);
  EXPECT_EQ(doc.at("events_kept").as_uint(), 5u);
  EXPECT_EQ(doc.at("torn").as_uint(), 1u);
  EXPECT_EQ(doc.at("window_seconds").as_double(), 30.0);
  // 970000 (the cutoff itself), 999500 and 1000250; not 960000 or 969999.
  EXPECT_EQ(doc.at("events_in_window").as_uint(), 3u);
  // Every kept event, window or not, by kind in name order.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  for (const auto& [kind, count] : doc.at("event_counts").members())
    counts.emplace_back(kind, count.as_uint());
  EXPECT_EQ(counts, (std::vector<std::pair<std::string, std::uint64_t>>{
                        {"frame_dropped", 2},
                        {"node_crash", 1},
                        {"stall_report", 1},
                        {"watchdog_stall", 1}}));
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (const auto& [name, value] : doc.at("counters").members())
    counters.emplace_back(name, value.as_uint());
  EXPECT_EQ(counters, (std::vector<std::pair<std::string, std::uint64_t>>{
                          {"sync_rounds", 9}, {"sync_watchdog_stalls", 1}}));
  EXPECT_EQ(doc.at("series_samples").as_uint(), 3u);
  EXPECT_EQ(doc.at("series_span_ms").as_uint(), 1000100u - 998000u);
}

TEST_F(Postmortem, WindowSelectsEventsAtOrAfterItsStart) {
  // 35 s reaches back to 965000: everything but the 960000 crash.
  EXPECT_EQ(summary("35").at("events_in_window").as_uint(), 4u);
  EXPECT_EQ(summary("0.5").at("events_in_window").as_uint(), 2u);
  // A window reaching past the dump's epoch keeps every event, however
  // far: 1e17 s is 1e20 ms, more than a 64-bit millisecond count holds.
  for (const char* last : {"1000", "1e17", "1e300"}) {
    const obs::Json doc = summary(last);
    EXPECT_EQ(doc.at("events_in_window").as_uint(), 5u) << last;
    EXPECT_EQ(doc.at("window_seconds").as_double(), std::stod(last));
  }
}

TEST_F(Postmortem, TextReportListsTheWindowOldestFirst) {
  std::string text;
  ASSERT_EQ(run_cli({"postmortem", dump_, "--series", series_}, &text), 0);
  EXPECT_EQ(text,
            "reason:     stall-report\n"
            "events:     7 recorded, 5 kept, 1 torn\n"
            "event counts:\n"
            "  frame_dropped  2\n"
            "  node_crash  1\n"
            "  stall_report  1\n"
            "  watchdog_stall  1\n"
            "final counters:\n"
            "  sync_rounds = 9\n"
            "  sync_watchdog_stalls = 1\n"
            "series:     3 sample(s) spanning 2100 ms\n"
            "timeline (last 30s, 3 event(s)):\n"
            "  [-30.000s] frame_dropped  actor=2 at=3 value=0\n"
            "  [-0.500s] watchdog_stall  actor=0 at=9 value=4\n"
            "  [+0.250s] stall_report  actor=0 at=9 value=2\n");
}

TEST_F(Postmortem, RejectsABadWindowBeforeWritingAnything) {
  for (const char* last : {"inf", "-inf", "nan", "0", "-1"}) {
    std::string text;
    EXPECT_EQ(run_cli({"postmortem", dump_, "--last", last, "--json", json_},
                      &text),
              2)
        << last;
    EXPECT_NE(text.find("--last"), std::string::npos) << text;
    EXPECT_FALSE(std::filesystem::exists(json_)) << last;
  }
}

/// `csd postmortem` on `dump` (and `series`, when given) exits 2 with an
/// error naming `key`.
void expect_postmortem_rejects(const std::string& dump,
                               const std::string& series,
                               const std::string& key) {
  std::vector<std::string> args = {"postmortem", dump};
  if (!series.empty()) args.insert(args.end(), {"--series", series});
  std::string text;
  EXPECT_EQ(run_cli(args, &text), 2) << text;
  EXPECT_NE(text.find("'" + key + "'"), std::string::npos) << text;
}

/// The fixture's dump with `from` replaced by `to`, written to its file.
void damage(const std::string& path, const std::string& from,
            const std::string& to) {
  std::string text = read_file(path);
  const auto at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  std::ofstream(path) << text;
}

TEST_F(Postmortem, AnUnknownEventKindExitsTwo) {
  damage(dump_, R"("node_crash")", R"("node_krash")");
  expect_postmortem_rejects(dump_, "", "kind");
}

TEST_F(Postmortem, AnExtraTopLevelKeyExitsTwo) {
  damage(dump_, "\n}\n", ",\n  \"extra\": 0\n}\n");
  expect_postmortem_rejects(dump_, "", "extra");
}

TEST_F(Postmortem, EventsKeptThatMissTheEventCountExitsTwo) {
  damage(dump_, R"("events_kept": 5)", R"("events_kept": 9)");
  expect_postmortem_rejects(dump_, "", "events_kept");
}

TEST_F(Postmortem, ASeriesNumberedOutOfOrderExitsTwo) {
  std::ofstream(series_)
      << R"({"schema":"csd-metrics-v2","sample":5,"epoch_ms":999000,)"
      << R"("events_recorded":4,"counters":{},"gauges":{},"histograms":{}})"
      << '\n'
      << R"({"schema":"csd-metrics-v2","sample":2,"epoch_ms":998000,)"
      << R"("events_recorded":4,"counters":{},"gauges":{},"histograms":{}})"
      << '\n';
  expect_postmortem_rejects(dump_, series_, "sample");
}

// The sampler stamps the wall clock, which may step back: the span is the
// latest sample's epoch minus the earliest's, not a wrapped difference.
TEST_F(Postmortem, ASeriesWhoseClockStepsBackSpansItsRange) {
  std::ofstream(series_)
      << R"({"schema":"csd-metrics-v2","sample":0,"epoch_ms":999000,)"
      << R"("events_recorded":4,"counters":{},"gauges":{},"histograms":{}})"
      << '\n'
      << R"({"schema":"csd-metrics-v2","sample":1,"epoch_ms":998000,)"
      << R"("events_recorded":4,"counters":{},"gauges":{},"histograms":{}})"
      << '\n';
  EXPECT_EQ(summary("").at("series_span_ms").as_uint(), 1000u);
}

// `csd analyze` over a damaged copy of a real --per-edge trace exits 2 and
// names the key and the line; the undamaged trace reads back with exit 0.
class DamagedTrace : public testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         (std::string("csd_trace_") +
          testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    graph_ = stem + ".txt";
    trace_ = stem + ".jsonl";
    std::string text;
    ASSERT_EQ(run_cli({"generate", "complete", "6", "--out", graph_}, &text),
              0);
    ASSERT_EQ(run_cli({"detect", "cycle", "4", graph_, "--reps", "2",
                       "--trace", trace_, "--per-edge"},
                      &text),
              0)
        << text;
    ASSERT_EQ(run_cli({"analyze", trace_, "--cut", "3"}, &text), 0) << text;
    std::istringstream is(read_file(trace_));
    for (std::string line; std::getline(is, line);) lines_.push_back(line);
  }

  void TearDown() override {
    std::remove(graph_.c_str());
    std::remove(trace_.c_str());
  }

  /// Index of the first line of `type`.
  std::size_t first(const std::string& type) const {
    for (std::size_t i = 0; i < lines_.size(); ++i)
      if (lines_[i].find("\"type\":\"" + type + "\"") != std::string::npos)
        return i;
    ADD_FAILURE() << "no " << type << " line";
    return 0;
  }

  /// Replaces `from` by `to` on line `index` and expects `csd analyze` to
  /// exit 2 naming `key` and line `error_line` (1-based).
  void expect_rejected(std::size_t index, const std::string& from,
                       const std::string& to, const std::string& key,
                       std::size_t error_line) {
    std::vector<std::string> lines = lines_;
    const auto at = lines[index].find(from);
    ASSERT_NE(at, std::string::npos) << from;
    lines[index].replace(at, from.size(), to);
    {
      std::ofstream os(trace_);
      for (const std::string& line : lines) os << line << '\n';
    }
    std::string text;
    EXPECT_EQ(run_cli({"analyze", trace_, "--cut", "3"}, &text), 2) << text;
    EXPECT_NE(text.find("'" + key + "'"), std::string::npos) << text;
    EXPECT_NE(text.find("trace line " + std::to_string(error_line) + ":"),
              std::string::npos)
        << text;
  }

  std::string graph_, trace_;
  std::vector<std::string> lines_;
};

TEST_F(DamagedTrace, HeaderRoundsThatMissTheRoundLineCountExitTwo) {
  const std::string rounds = std::to_string(
      obs::Json::parse(lines_[0]).at("rounds").as_uint());
  expect_rejected(0, "\"rounds\":" + rounds + ",", "\"rounds\":9999,",
                  "rounds", first("edge") + 1);
}

TEST_F(DamagedTrace, AnEdgeSrcPast32BitsExitsTwo) {
  const std::size_t edge = first("edge");
  const std::uint64_t src = obs::Json::parse(lines_[edge]).at("src").as_uint();
  expect_rejected(edge, "\"src\":" + std::to_string(src) + ",",
                  "\"src\":" + std::to_string((1ULL << 32) + src) + ",",
                  "src", edge + 1);
}

TEST_F(DamagedTrace, AnUnknownKeyOnARoundLineExitsTwo) {
  expect_rejected(first("round"), "}", ",\"extra\":1}", "extra",
                  first("round") + 1);
}

TEST_F(DamagedTrace, ACsdTraceV1HeaderExitsTwo) {
  expect_rejected(0, "csd-trace-v2", "csd-trace-v1", "schema", 1);
}

// A summary phase's totals are the sums of the round lines labelled with it.
TEST_F(DamagedTrace, ASummaryPhaseThatMissesItsRoundLinesExitsTwo) {
  const std::size_t summary = first("summary");
  const std::uint64_t bits = obs::Json::parse(lines_[summary])
                                 .at("phases")
                                 .items()
                                 .front()
                                 .at("bits")
                                 .as_uint();
  // The first phase entry holds the line's first "bits" key.
  expect_rejected(summary, "\"bits\":" + std::to_string(bits) + "}",
                  "\"bits\":" + std::to_string(bits + 1000) + "}", "phases",
                  summary + 1);
}

// The edge lines of a per-edge trace sum to the summary's totals, so an
// edge cannot gain bits the cut analysis would count.
TEST_F(DamagedTrace, EdgeLinesThatMissTheTotalsExitTwo) {
  const std::size_t edge = first("edge");
  const std::uint64_t bits =
      obs::Json::parse(lines_[edge]).at("bits").as_uint();
  expect_rejected(edge, "\"bits\":" + std::to_string(bits) + "}",
                  "\"bits\":" + std::to_string(bits + 1000) + "}",
                  "total_bits", first("summary") + 1);
}

// A summary's size histogram counts each message once, so a bucket cannot
// gain messages the round lines never carried.
TEST_F(DamagedTrace, AHistogramThatMissesTheTotalExitsTwo) {
  const std::size_t summary = first("summary");
  const auto buckets =
      obs::Json::parse(lines_[summary]).at("size_histogram").items();
  ASSERT_FALSE(buckets.empty());
  const std::uint64_t last = buckets.back().as_uint();
  expect_rejected(summary, "," + std::to_string(last) + "]",
                  "," + std::to_string(last + 9000) + "]", "size_histogram",
                  summary + 1);
}

// A summary's counter block holds non-zero counts under ascending names,
// so an edited zero cannot print as a counter.
TEST_F(DamagedTrace, AZeroCounterExitsTwo) {
  const std::size_t summary = first("summary");
  ASSERT_EQ(lines_[summary].find("counters"), std::string::npos);
  expect_rejected(summary, "]}", R"(],"counters":{"watchdog_stalls":0}})",
                  "counters", summary + 1);
}

// `csd detect --trace` and `csd sweep --trace` write no per-node rows:
// `csd analyze` reads none, and they cost O(rounds * n) memory and bytes.
TEST(Cli, TracesCarryNoPerNodeRows) {
  const std::string path = write_k6("csd_cli_per_node.txt");
  const std::string trace =
      (std::filesystem::temp_directory_path() / "csd_cli_per_node.jsonl")
          .string();
  for (std::vector<std::string> args :
       {std::vector<std::string>{"detect", "cycle", "4", path, "--reps", "2"},
        std::vector<std::string>{"sweep", "cycle", "4", "--sizes", "16",
                                 "--reps", "2"}}) {
    args.insert(args.end(), {"--trace", trace});
    std::string text;
    ASSERT_EQ(run_cli(args, &text), 0) << text;
    const std::string jsonl = read_file(trace);
    std::istringstream lines(jsonl);
    std::string header;
    std::getline(lines, header);
    EXPECT_NE(header.find("\"per_node\":false"), std::string::npos)
        << args[0] << ": " << header;
    EXPECT_EQ(jsonl.find("node_messages"), std::string::npos) << args[0];
  }
  std::remove(path.c_str());
  std::remove(trace.c_str());
}

// Every command reads a declared set of flags; any other flag exits 2 and
// names the flag instead of running as if it were absent.
TEST(Cli, SweepRejectsFaultAndTimerFlags) {
  std::string text;
  EXPECT_EQ(run_cli({"sweep", "cycle", "4", "--sizes", "16", "--reps", "2",
                     "--drop", "0.5", "--timers"},
                    &text),
            2);
  EXPECT_NE(text.find("sweep does not read --drop"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("planted"), std::string::npos) << text;
}

TEST(Cli, DetectRejectsAMisspeltFlag) {
  const std::string path = write_k6("csd_cli_misspelt.txt");
  std::string text;
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--wokers", "4"}, &text), 2);
  EXPECT_NE(text.find("does not read --wokers"), std::string::npos) << text;
  EXPECT_EQ(text.find("verdict"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(Cli, SyncEngineRejectsTransportAndRecoveryFlags) {
  const std::string path = write_k6("csd_cli_sync_transport.txt");
  std::string text;
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--supervised", "--transport",
                     "reliable", "--recover"},
                    &text),
            2);
  EXPECT_NE(text.find("sync engine does not read --transport"),
            std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(Cli, SyncEngineRejectsCheckpointAt) {
  const std::string path = write_k6("csd_cli_sync_ckpt.txt");
  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "csd_cli_sync_ckpt.json")
          .string();
  std::remove(ckpt.c_str());
  std::string text;
  EXPECT_EQ(run_cli({"detect", "triangle", path, "--supervised",
                     "--checkpoint", ckpt, "--checkpoint-at", "2"},
                    &text),
            2);
  EXPECT_NE(text.find("sync engine does not read --checkpoint-at"),
            std::string::npos)
      << text;
  EXPECT_FALSE(std::filesystem::exists(ckpt));
  std::remove(path.c_str());
}

TEST(Cli, GenerateRejectsSeedFlag) {
  std::string text;
  EXPECT_EQ(run_cli({"generate", "gnp", "16", "30", "7", "--seed", "99"},
                    &text),
            2);
  EXPECT_NE(text.find("generate does not read --seed"), std::string::npos)
      << text;
}

TEST(Cli, SupervisedTimersArePrinted) {
  const std::string path = write_k6("csd_cli_sup_timers.txt");
  std::string text;
  ASSERT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "2",
                     "--supervised", "--timers"},
                    &text),
            0);
  EXPECT_NE(text.find("timers:     compute "), std::string::npos) << text;
  std::remove(path.c_str());
}

// The trace header's `program` is the detector, so `csd analyze` fits a C_4
// and a C_5 run in different groups whichever engine wrote them.
TEST(Cli, TraceProgramIsTheDetectorName) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = write_k6("csd_cli_program.txt");
  const std::string trace = (dir / "csd_cli_program.jsonl").string();
  const auto program = [&](std::vector<std::string> args) {
    args.insert(args.end(), {"--trace", trace});
    std::string text;
    EXPECT_EQ(run_cli(args, &text), 0) << text;
    std::istringstream lines(read_file(trace));
    std::string header;
    std::getline(lines, header);
    return obs::Json::parse(header).at("meta").at("program").as_string();
  };
  EXPECT_EQ(program({"detect", "cycle", "4", path, "--reps", "2"}),
            "even_cycle");
  EXPECT_EQ(program({"detect", "cycle", "4", path, "--reps", "2",
                     "--supervised"}),
            "even_cycle");
  EXPECT_EQ(program({"detect", "cycle", "4", path, "--reps", "2",
                     "--transport", "reliable"}),
            "even_cycle");
  EXPECT_EQ(program({"detect", "cycle", "5", path, "--reps", "2",
                     "--supervised"}),
            "pipelined_cycle");
  EXPECT_EQ(program({"detect", "cycle", "5", path, "--reps", "2",
                     "--transport", "raw"}),
            "pipelined_cycle");
  std::remove(path.c_str());
  std::remove(trace.c_str());
}

// A watchdog stall on the sync engine is also a stall report; the report
// is the more specific reason, so it names the dump.
TEST(Cli, SupervisedWatchdogStallDumpsStallReport) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_path3.txt").string();
  const std::string blackbox = (dir / "csd_cli_stall_bb.json").string();
  std::ofstream(path) << "3 2\n0 1\n1 2\n";
  std::string text;
  ASSERT_EQ(run_cli({"detect", "cycle", "4", path, "--reps", "1",
                     "--supervised", "--stall-window", "4", "--crash", "1:0",
                     "--blackbox", blackbox},
                    &text),
            0);
  EXPECT_NE(text.find("[watchdog]"), std::string::npos) << text;
  EXPECT_EQ(obs::Json::parse(read_file(blackbox)).at("reason").as_string(),
            "stall-report");
  std::remove(path.c_str());
  std::remove(blackbox.c_str());
}

// `--supervised` alone selects the engine `detect` already runs, with
// every supervisor setting at its default: the --json report (minus the
// wall-clock env block) and the trace are byte-identical without it.
TEST(Cli, SupervisedFlagAloneChangesNothing) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "csd_cli_forest.txt").string();
  std::string text;
  ASSERT_EQ(run_cli({"generate", "tree", "256", "5", "--out", path}, &text),
            0);
  const auto outputs = [&](bool supervised) {
    const std::string json = (dir / "csd_cli_sup_alone.json").string();
    const std::string trace = (dir / "csd_cli_sup_alone.jsonl").string();
    std::vector<std::string> args = {"detect", "cycle", "4", path,
                                     "--reps", "8",     "--seed", "11",
                                     "--jobs", "2",     "--json", json,
                                     "--trace", trace};
    if (supervised) args.push_back("--supervised");
    EXPECT_EQ(run_cli(args, &text), 0) << text;
    const obs::Json report = obs::Json::parse(read_file(json));
    std::string digest;
    for (const auto& [key, value] : report.members())
      if (key != "env") digest += key + "=" + value.dump() + "\n";
    return std::make_pair(digest, read_file(trace));
  };
  const auto plain = outputs(false);
  const auto supervised = outputs(true);
  EXPECT_EQ(supervised.first, plain.first);
  EXPECT_EQ(supervised.second, plain.second);
  EXPECT_NE(plain.second.find("\"program\":\"even_cycle\""),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csd
