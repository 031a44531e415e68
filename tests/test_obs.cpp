// Tests for the observability layer: the JSON model and its field-list
// codec, the bench report schema, and the per-round trace — including the
// two contracts the rest of the repo leans on: traces are bit-identical at
// every --jobs count, and a disabled trace costs exactly nothing
// (approx_bytes() == 0, metrics unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "congest/supervisor.hpp"
#include "detect/even_cycle.hpp"
#include "detect/pipelined_cycle.hpp"
#include "graph/builders.hpp"
#include "obs/bench_report.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/codec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_series.hpp"
#include "obs/metrics_v2.hpp"
#include "obs/round_trace.hpp"
#include "obs/trace_analysis.hpp"
#include "support/bitvec.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd {
namespace {

// ---------------------------------------------------------------- Json ----

TEST(Json, ScalarDumpAndParseRoundTrip) {
  obs::Json obj = obs::Json::object();
  obj.set("null", obs::Json());
  obj.set("bool", obs::Json(true));
  obj.set("uint", obs::Json(std::uint64_t{18446744073709551615ull}));
  obj.set("int", obs::Json(std::int64_t{-42}));
  obj.set("double", obs::Json(0.1));
  obj.set("integral_double", obs::Json(3.0));
  obj.set("string", obs::Json("he\"llo\n\t\x01"));
  obs::Json arr = obs::Json::array();
  arr.push(obs::Json(std::uint64_t{1}));
  arr.push(obs::Json("two"));
  obj.set("arr", std::move(arr));

  const std::string text = obj.dump();
  const obs::Json parsed = obs::Json::parse(text);
  EXPECT_EQ(parsed, obj);
  // Dumping the parse again is a fixpoint — the serialization is canonical.
  EXPECT_EQ(parsed.dump(), text);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  obs::Json obj = obs::Json::object();
  obj.set("zebra", obs::Json(std::uint64_t{1}));
  obj.set("alpha", obs::Json(std::uint64_t{2}));
  obj.set("mid", obs::Json(std::uint64_t{3}));
  EXPECT_EQ(obj.dump(-1), R"({"zebra":1,"alpha":2,"mid":3})");
}

TEST(Json, DoublesSurviveShortestRoundTrip) {
  for (const double v : {0.1, 1e-9, 123456.789, 2.5e300, -0.0625}) {
    const obs::Json parsed = obs::Json::parse(obs::Json(v).dump());
    EXPECT_EQ(parsed.as_double(), v);
  }
  // Integral doubles keep a ".0" marker so they parse back as doubles.
  EXPECT_EQ(obs::Json(3.0).dump(), "3.0");
  EXPECT_EQ(obs::Json::parse("3.0").kind(), obs::Json::Kind::Double);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse("{"), CheckFailure);
  EXPECT_THROW(obs::Json::parse("[1,]"), CheckFailure);
  EXPECT_THROW(obs::Json::parse("01"), CheckFailure);
  EXPECT_THROW(obs::Json::parse("\"unterminated"), CheckFailure);
  EXPECT_THROW(obs::Json::parse("true false"), CheckFailure);
  // Json::set keeps one member per key, so no writer emits a duplicate: a
  // document that has one was damaged, and the last value must not win.
  EXPECT_THROW(obs::Json::parse(R"({"a": 1, "b": 2, "a": 3})"), CheckFailure);
}

// --------------------------------------------------------------- codec ----

struct CodecSample {
  enum class Color : std::uint8_t { Red, Green, Blue };
  bool on = false;
  std::uint8_t flag = 0;
  std::uint32_t small = 0;
  std::uint64_t big = 0;
  double ratio = 0.0;
  std::string name;
  BitVec bits;
  std::optional<BitVec> missing;
  std::array<std::uint64_t, 2> words{};
  std::pair<std::uint32_t, std::uint32_t> edge{};
  Color color = Color::Red;
  Color shade = Color::Red;
};

constexpr std::array<const char*, 3> kColorNames = {"red", "green", "blue"};

constexpr auto sample_fields = [](auto& io, auto& r) {
  io.tag("schema", "sample-v1");
  io("on", r.on);
  io("flag", r.flag);
  io("small", r.small);
  io("big", r.big);
  io("ratio", r.ratio);
  io("name", r.name);
  io("bits", r.bits);
  io("missing", r.missing);
  io("words", r.words);
  io("edge", r.edge);
  io("color", r.color, CodecSample::Color::Blue);
  io("shade", r.shade, kColorNames);
};

const char* const kSampleJson =
    R"({"schema":"sample-v1","on":true,"flag":1,"small":7,)"
    R"("big":18446744073709551615,"ratio":0.5,"name":"x",)"
    R"("bits":{"n":3,"w":[5]},"missing":null,"words":[1,2],"edge":[3,4],)"
    R"("color":2,"shade":"green"})";

TEST(Codec, OneFieldListWritesAndReadsEveryMemberKind) {
  CodecSample sample;
  sample.on = true;
  sample.flag = 1;
  sample.small = 7;
  sample.big = ~0ULL;
  sample.ratio = 0.5;
  sample.name = "x";
  sample.bits.append_bits(5, 3);
  sample.words = {1, 2};
  sample.edge = {3, 4};
  sample.color = CodecSample::Color::Blue;
  sample.shade = CodecSample::Color::Green;
  EXPECT_EQ(obs::encode(sample, sample_fields).dump(-1), kSampleJson);
  const CodecSample back =
      obs::decode<CodecSample>(obs::Json::parse(kSampleJson), sample_fields);
  EXPECT_EQ(obs::encode(back, sample_fields).dump(-1), kSampleJson);
}

TEST(Codec, ReaderRejectsWhatTheWriterCannotProduceNamingTheKey) {
  const auto rejects = [](const std::string& from, const std::string& to,
                          const std::string& key) {
    std::string text = kSampleJson;
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    try {
      obs::decode<CodecSample>(obs::Json::parse(text), sample_fields);
      ADD_FAILURE() << "accepted " << text;
    } catch (const CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what()).find("'" + key + "'"),
                std::string::npos)
          << failure.what();
    }
  };
  rejects(R"("sample-v1")", R"("sample-v2")", "schema");
  rejects(R"("on":true)", R"("on":1)", "on");
  rejects(R"("flag":1)", R"("flag":2)", "flag");
  rejects(R"("small":7)", R"("small":4294967296)", "small");
  rejects(R"("small":7)", R"("small":-7)", "small");
  rejects(R"("ratio":0.5)", R"("ratio":1)", "ratio");
  rejects(R"("w":[5])", R"("w":[13])", "bits");   // bit 3 of a 3-bit vector
  rejects(R"("w":[5])", R"("w":[5,0])", "bits");  // one word too many
  rejects(R"("w":[5])", R"("w":[])", "bits");     // one word too few
  rejects(R"("words":[1,2])", R"("words":[1,2,3])", "words");
  rejects(R"("edge":[3,4])", R"("edge":[3])", "edge");
  rejects(R"("color":2)", R"("color":3)", "color");
  rejects(R"("green")", R"("mauve")", "shade");
  rejects(R"(,"name":"x")", "", "name");                         // missing
  rejects(R"("on":true,"flag":1)", R"("flag":1,"on":true)", "on");  // order
  rejects(R"("shade":"green")", R"("shade":"green","hue":0)", "hue");
}

// --------------------------------------------------------- BenchReport ----

TEST(BenchReport, SchemaRoundTripsThroughParse) {
  obs::BenchReport report("unit_test");
  report.param("n", std::uint64_t{64}).param("rate", 0.25);
  report.seed(7).seed(11);
  auto& m = report.measurement("table/row0");
  m.value("rounds", std::uint64_t{12});
  m.value("verdict", true);
  m.value("label", "planted");
  report.measurement("table/row1").value("rounds", std::uint64_t{13});
  report.set_wall_clock_ms(1.5);

  const obs::Json doc = obs::Json::parse(report.to_json().dump());
  EXPECT_EQ(doc.at("schema").as_string(), obs::kBenchSchema);
  EXPECT_EQ(doc.at("name").as_string(), "unit_test");
  EXPECT_FALSE(doc.at("smoke").as_bool());
  EXPECT_EQ(doc.at("params").at("n").as_uint(), 64u);
  EXPECT_EQ(doc.at("seeds").items().size(), 2u);
  const auto& measurements = doc.at("measurements").items();
  ASSERT_EQ(measurements.size(), 2u);
  EXPECT_EQ(measurements[0].at("name").as_string(), "table/row0");
  EXPECT_EQ(measurements[0].at("values").at("rounds").as_uint(), 12u);
  EXPECT_TRUE(measurements[0].at("values").at("verdict").as_bool());
  EXPECT_EQ(doc.at("env").at("wall_clock_ms").as_double(), 1.5);
  // git_sha is always stamped (possibly "unknown" outside a git checkout).
  EXPECT_FALSE(doc.at("env").at("git_sha").as_string().empty());
  // So is the peak resident set the process reached by the time of writing.
  EXPECT_GT(doc.at("env").at("peak_rss_mib").as_double(), 0.0);
}

TEST(BenchReport, MeasurementReferencesStayStable) {
  obs::BenchReport report("stability");
  auto& first = report.measurement("a");
  for (int i = 0; i < 100; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    report.measurement(name);
  }
  first.value("still_valid", true);  // would crash if `first` dangled
  EXPECT_TRUE(report.to_json()
                  .at("measurements")
                  .items()[0]
                  .at("values")
                  .at("still_valid")
                  .as_bool());
}

// ------------------------------------------------------------ RunTrace ----

congest::RunOutcome traced_run_opts(const Graph& g, unsigned jobs,
                                    const obs::TraceOptions& trace,
                                    std::uint32_t reps) {
  detect::EvenCycleConfig cfg;
  cfg.k = 2;
  cfg.repetitions = reps;
  cfg.trace = trace;
  congest::NetworkConfig net_cfg;
  net_cfg.bandwidth = 64;
  net_cfg.seed = 5;
  net_cfg.trace = cfg.trace;
  net_cfg.max_rounds =
      detect::make_even_cycle_schedule(g.num_vertices(), cfg).total_rounds() +
      1;
  congest::SupervisorConfig sup;
  sup.jobs = jobs;
  sup.early_exit = false;  // every repetition contributes a segment
  return congest::Supervisor(g, net_cfg, sup)
      .run(detect::even_cycle_program(cfg), reps)
      .outcome;
}

congest::RunOutcome traced_run(const Graph& g, unsigned jobs,
                               bool enable_trace, std::uint32_t reps) {
  obs::TraceOptions trace;
  trace.enabled = enable_trace;
  return traced_run_opts(g, jobs, trace, reps);
}

Graph trace_host() {
  Rng rng(17);
  Graph g = build::random_tree(24, rng);
  build::plant_subgraph(g, build::cycle(4), rng);
  return g;
}

TEST(RunTrace, BitIdenticalAcrossJobsCounts) {
  const Graph g = trace_host();
  const auto reference = traced_run(g, 1, true, 6);
  ASSERT_GT(reference.trace.segments(), 0u);
  std::ostringstream ref_os;
  reference.trace.write_jsonl(ref_os);

  for (const unsigned jobs : {4u, 0u}) {
    const auto outcome = traced_run(g, jobs, true, 6);
    std::ostringstream os;
    outcome.trace.write_jsonl(os);
    EXPECT_EQ(os.str(), ref_os.str()) << "jobs = " << jobs;
    EXPECT_EQ(outcome.metrics.total_bits, reference.metrics.total_bits);
    EXPECT_EQ(outcome.metrics.rounds, reference.metrics.rounds);
  }
}

TEST(RunTrace, TraceTotalsMatchRunMetrics) {
  const Graph g = trace_host();
  const auto outcome = traced_run(g, 1, true, 4);
  std::uint64_t traced_messages = 0, traced_bits = 0;
  for (const auto& round : outcome.trace.rounds()) {
    traced_messages += round.messages;
    traced_bits += round.bits;
  }
  EXPECT_EQ(traced_messages, outcome.metrics.messages);
  EXPECT_EQ(traced_bits, outcome.metrics.total_bits);
  EXPECT_EQ(outcome.trace.segments(), 4u);
}

TEST(RunTrace, DisabledTraceHasZeroOverheadAndSameMetrics) {
  const Graph g = trace_host();
  const auto off = traced_run(g, 1, false, 4);
  const auto on = traced_run(g, 1, true, 4);

  EXPECT_EQ(off.trace.approx_bytes(), 0u) << "disabled trace must not "
                                              "allocate observer storage";
  EXPECT_EQ(off.trace.segments(), 0u);
  EXPECT_GT(on.trace.approx_bytes(), 0u);

  // Observation is passive: enabling the trace changes no model-level
  // number.
  EXPECT_EQ(off.detected, on.detected);
  EXPECT_EQ(off.metrics.rounds, on.metrics.rounds);
  EXPECT_EQ(off.metrics.messages, on.metrics.messages);
  EXPECT_EQ(off.metrics.total_bits, on.metrics.total_bits);
  EXPECT_EQ(off.metrics.max_message_bits, on.metrics.max_message_bits);
}

TEST(RunTrace, JsonlDocumentIsWellFormedAndConsistent) {
  const Graph g = trace_host();
  const auto outcome = traced_run(g, 1, true, 2);
  std::ostringstream os;
  outcome.trace.write_jsonl(os);

  std::istringstream is(os.str());
  std::string line;
  std::vector<obs::Json> lines;
  while (std::getline(is, line)) lines.push_back(obs::Json::parse(line));
  ASSERT_GE(lines.size(), 3u);  // header + >=1 round + summary

  const obs::Json& header = lines.front();
  EXPECT_EQ(header.at("schema").as_string(), "csd-trace-v2");
  EXPECT_EQ(header.at("nodes").as_uint(), g.num_vertices());
  EXPECT_EQ(header.at("segments").as_uint(), 2u);
  EXPECT_EQ(header.at("rounds").as_uint(), lines.size() - 2);

  const obs::Json& summary = lines.back();
  std::uint64_t bits = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("round").as_uint(), i - 1);
    bits += lines[i].at("bits").as_uint();
  }
  EXPECT_EQ(summary.at("total_bits").as_uint(), bits);
  EXPECT_EQ(summary.at("total_bits").as_uint(), outcome.metrics.total_bits);
}

TEST(RunTrace, AppendRebasesRoundsAndAdoptsIntoDisabled) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace a(2, opts), b(2, opts);
  a.record(0, 0, 1, 8);
  a.record(1, 1, 0, 16);
  b.record(0, 1, 0, 32);

  obs::RunTrace merged;  // disabled: append adopts the first trace wholesale
  merged.append(a);
  merged.append(b);
  ASSERT_EQ(merged.rounds().size(), 3u);
  EXPECT_EQ(merged.rounds()[2].round, 2u);  // b's round 0 re-based after a
  EXPECT_EQ(merged.rounds()[2].bits, 32u);
  EXPECT_EQ(merged.segments(), 2u);
}

// A per-edge trace's edge lines sum to its totals only if every appended
// segment recorded its edges too.
TEST(RunTrace, AppendRejectsADonorWithAnotherPerEdgeOption) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace plain(2, opts);
  opts.per_edge = true;
  obs::RunTrace edged(2, opts);
  plain.record(0, 0, 1, 8);
  edged.record(0, 0, 1, 8);
  EXPECT_THROW(edged.append(plain), CheckFailure);
  EXPECT_THROW(plain.append(edged), CheckFailure);
}

// A per-node trace's rows split each round line only if every appended
// segment recorded its rows too.
TEST(RunTrace, AppendRejectsADonorWithAnotherPerNodeOption) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace rows(3, opts);
  opts.per_node = false;
  obs::RunTrace plain(3, opts);
  rows.record(0, 0, 1, 8);
  plain.record(0, 0, 1, 8);
  EXPECT_THROW(rows.append(plain), CheckFailure);
  EXPECT_THROW(plain.append(rows), CheckFailure);
}

TEST(RunTrace, AppendIntoConfiguredDisabledReceiverIsANoOp) {
  obs::TraceOptions on;
  on.enabled = true;
  obs::RunTrace donor(3, on);
  donor.record(0, 0, 1, 8);
  donor.record(1, 2, 0, 16);

  obs::TraceOptions off;  // enabled defaults to false
  obs::RunTrace receiver(3, off);
  receiver.append(donor);

  // The deliberately disabled receiver must NOT inherit the donor's options
  // (the historical bug: `*this = other` turned it into an enabled trace).
  EXPECT_FALSE(receiver.enabled());
  EXPECT_TRUE(receiver.rounds().empty());
  EXPECT_EQ(obs::trace_counts(receiver.instance()).total_messages, 0u);
  EXPECT_EQ(obs::trace_counts(receiver.instance()).total_bits, 0u);
  EXPECT_EQ(receiver.segments(), 0u);
  EXPECT_EQ(receiver.approx_bytes(), 0u);

  // It stays inert on further appends and further record() calls.
  receiver.append(donor);
  receiver.record(0, 0, 1, 64);
  EXPECT_FALSE(receiver.enabled());
  EXPECT_TRUE(receiver.rounds().empty());
}

TEST(RunTrace, AppendAdoptsMultiSegmentDonorIntoDefaultConstructed) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace a(2, opts), b(2, opts), c(2, opts);
  a.record(0, 0, 1, 4);
  b.record(0, 1, 0, 8);
  c.record(0, 0, 1, 2);

  obs::RunTrace donor;  // accumulator: adopts a, then merges b
  donor.append(a);
  donor.append(b);
  ASSERT_EQ(donor.segments(), 2u);

  obs::RunTrace receiver;  // adopting a multi-segment donor keeps boundaries
  receiver.append(donor);
  EXPECT_TRUE(receiver.enabled());
  EXPECT_EQ(receiver.segments(), 2u);
  ASSERT_EQ(receiver.rounds().size(), 2u);
  EXPECT_EQ(receiver.rounds()[1].round, 1u);
  EXPECT_EQ(obs::trace_counts(receiver.instance()).total_bits, 12u);

  // And the adopted receiver keeps merging like a normal enabled trace.
  receiver.append(c);
  EXPECT_EQ(receiver.segments(), 3u);
  EXPECT_EQ(obs::trace_counts(receiver.instance()).total_bits, 14u);
}

// ------------------------------------------------- RunTrace (schema v2) ----

// The v2 JSONL emitter is a pure function of the recorded data; pin it
// byte-for-byte on a tiny hand-built trace covering phases, meta, per-edge
// records, and finish_run padding.
TEST(RunTrace, GoldenJsonlOutput) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.per_node = false;
  opts.histogram = false;
  opts.per_edge = true;
  obs::RunTrace trace(2, opts);
  trace.record(0, 0, 1, 8);
  trace.set_phase(0, "alpha");
  trace.record(1, 1, 0, 16);
  trace.set_phase(1, "beta");
  trace.set_meta("program", "unit");
  trace.set_meta("n", "2");
  trace.finish_run(3);  // pads a quiet trailing round

  std::ostringstream os;
  trace.write_jsonl(os);
  const std::string expected =
      R"({"type":"header","schema":"csd-trace-v2","nodes":2,"rounds":3,)"
      R"("segments":1,"per_node":false,"per_edge":true,)"
      R"("meta":{"program":"unit","n":"2"}})"
      "\n"
      R"({"type":"round","round":0,"messages":1,"bits":8,"phase":"alpha"})"
      "\n"
      R"({"type":"round","round":1,"messages":1,"bits":16,"phase":"beta"})"
      "\n"
      R"({"type":"round","round":2,"messages":0,"bits":0})"
      "\n"
      R"({"type":"edge","src":0,"dst":1,"messages":1,"bits":8})"
      "\n"
      R"({"type":"edge","src":1,"dst":0,"messages":1,"bits":16})"
      "\n"
      R"({"type":"summary","total_messages":2,"total_bits":24,)"
      R"("phases":[{"name":"alpha","rounds":1,"messages":1,"bits":8},)"
      R"({"name":"beta","rounds":1,"messages":1,"bits":16}]})"
      "\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(RunTrace, FirstPhaseDeclarationWins) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace trace(2, opts);
  trace.set_phase(0, "first");
  trace.set_phase(0, "second");  // ignored: phases are per-round constants
  std::ostringstream os;
  trace.write_jsonl(os);
  EXPECT_NE(os.str().find("\"phase\":\"first\""), std::string::npos);
  EXPECT_EQ(os.str().find("second"), std::string::npos);
}

TEST(RunTrace, CountersAppearInSummaryOnlyWhenNonZero) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace clean(2, opts);
  clean.add_counter("retransmissions", 0);
  clean.add_counter("checksum_rejects", 0);
  std::ostringstream clean_os;
  clean.write_jsonl(clean_os);
  // All-zero counters are omitted so clean sync and async traces stay
  // byte-identical (the sync engine has no transport counters to report).
  EXPECT_EQ(clean_os.str().find("counters"), std::string::npos);

  obs::RunTrace dirty(2, opts);
  dirty.add_counter("retransmissions", 3);
  dirty.add_counter("checksum_rejects", 0);
  std::ostringstream dirty_os;
  dirty.write_jsonl(dirty_os);
  EXPECT_NE(dirty_os.str().find(R"("counters":{"retransmissions":3})"),
            std::string::npos);
  EXPECT_EQ(dirty_os.str().find("checksum_rejects"), std::string::npos);
}

TEST(RunTrace, PerEdgeTraceBitIdenticalAcrossJobsCounts) {
  const Graph g = trace_host();
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.per_node = false;
  opts.per_edge = true;
  const auto reference = traced_run_opts(g, 1, opts, 6);
  std::ostringstream ref_os;
  reference.trace.write_jsonl(ref_os);
  ASSERT_NE(ref_os.str().find("\"type\":\"edge\""), std::string::npos);

  for (const unsigned jobs : {4u, 0u}) {
    const auto outcome = traced_run_opts(g, jobs, opts, 6);
    std::ostringstream os;
    outcome.trace.write_jsonl(os);
    EXPECT_EQ(os.str(), ref_os.str()) << "jobs = " << jobs;
  }
}

TEST(RunTrace, DisabledTraceStaysFreeWithPerEdgeAndTimersRequested) {
  const Graph g = trace_host();
  obs::TraceOptions opts;  // enabled stays false
  opts.per_edge = true;
  opts.timers = true;
  const auto outcome = traced_run_opts(g, 1, opts, 2);
  EXPECT_EQ(outcome.trace.approx_bytes(), 0u);
  EXPECT_TRUE(outcome.trace.rounds().empty());
  // Engine timers are independent of the trace: they live in RunMetrics and
  // stay available even when the per-round trace is off.
  EXPECT_TRUE(outcome.metrics.timers.enabled);
}

TEST(RunTrace, PhaseAttributionCoversAllTrafficInEvenCycleRun) {
  const Graph g = trace_host();
  const auto outcome = traced_run(g, 1, true, 2);
  std::ostringstream os;
  outcome.trace.write_jsonl(os);
  std::istringstream is(os.str());
  const auto instances = obs::parse_trace_jsonl(is);
  ASSERT_EQ(instances.size(), 1u);
  const obs::TraceCounts counts = obs::trace_counts(instances.front());

  ASSERT_FALSE(counts.phases.empty());
  std::vector<std::string> names;
  std::uint64_t phase_rounds = 0, phase_bits = 0;
  for (const auto& phase : counts.phases) {
    names.push_back(phase.name);
    phase_rounds += phase.rounds;
    phase_bits += phase.bits;
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "phase1-pipeline"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "phase2-peel"),
            names.end());
  // Every message is sent from some on_round call, and every on_round call
  // declares a phase — so phases account for all traffic. Only quiet padded
  // rounds after the last halt may be unattributed.
  EXPECT_EQ(phase_bits, counts.total_bits);
  EXPECT_LE(phase_rounds, counts.rounds);
  EXPECT_GT(phase_rounds, 0u);
}

// ------------------------------------------------------------- Metrics ----

TEST(Metrics, RegistryAccumulatesByName) {
  obs::MetricsRegistry a;
  a.add("x", 1);
  a.add("y", 2);
  a.add("x", 3);  // accumulates into the existing entry
  EXPECT_EQ(a.value("x"), 4u);
  EXPECT_EQ(a.value("y"), 2u);
  EXPECT_EQ(a.value("missing"), 0u);
  ASSERT_EQ(a.entries().size(), 2u);  // insertion order: x, y
  EXPECT_EQ(a.entries()[0].first, "x");
  EXPECT_EQ(a.entries()[1].first, "y");
}

TEST(Metrics, EngineTimersMerge) {
  obs::EngineTimers a, b;
  a.enabled = true;
  a.compute_ns = 10;
  a.delivery_ns = 20;
  b.enabled = true;
  b.compute_ns = 1;
  b.transport_ns = 5;
  a.merge(b);
  EXPECT_EQ(a.compute_ns, 11u);
  EXPECT_EQ(a.delivery_ns, 20u);
  EXPECT_EQ(a.transport_ns, 5u);
  EXPECT_EQ(a.total_ns(), 36u);
}

// ------------------------------------------------------- TraceAnalysis ----

obs::TraceInstance parse_single(const std::string& jsonl) {
  std::istringstream is(jsonl);
  auto instances = obs::parse_trace_jsonl(is);
  CSD_CHECK(instances.size() == 1);
  return std::move(instances.front());
}

TEST(TraceAnalysis, ParsesEmittedTraceRoundTrip) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.per_node = false;
  opts.histogram = false;
  opts.per_edge = true;
  obs::RunTrace trace(4, opts);
  trace.record(0, 0, 2, 8);
  trace.record(0, 1, 3, 8);
  trace.record(1, 2, 0, 32);
  trace.set_phase(0, "seed");
  trace.set_phase(1, "echo");
  trace.set_meta("program", "toy");
  trace.set_meta("n", "4");
  trace.finish_run(2);
  std::ostringstream os;
  trace.write_jsonl(os);

  const obs::TraceInstance instance = parse_single(os.str());
  EXPECT_EQ(instance, trace.instance());
  EXPECT_EQ(instance.nodes, 4u);
  EXPECT_EQ(obs::trace_counts(instance).rounds, 2u);
  EXPECT_EQ(obs::trace_counts(instance).segments, 1u);
  EXPECT_TRUE(instance.per_edge);
  EXPECT_EQ(instance.meta_value("program"), "toy");
  EXPECT_EQ(instance.meta_number("n"), 4.0);
  EXPECT_FALSE(instance.meta_number("program").has_value());
  EXPECT_EQ(instance.fit_group(), "toy");
  ASSERT_EQ(instance.rounds.size(), 2u);
  EXPECT_EQ(instance.rounds[0].phase, "seed");
  ASSERT_EQ(instance.edges.size(), 3u);
  EXPECT_EQ(obs::trace_counts(instance).total_bits, 48u);
  EXPECT_EQ(instance.rounds_per_segment(), 2.0);

  // Edges (0,2) and (1,3) cross the cut at boundary 2; (2,0) crosses back.
  EXPECT_EQ(obs::cut_traffic_bits(instance, 2), 48u);
  EXPECT_EQ(obs::cut_traffic_bits(instance, 1), 8u + 32u);
  const auto top = obs::top_edges_by_bits(instance, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].bits, 32u);
  EXPECT_EQ(top[1].src, 0u);  // 8-bit tie broken by (src, dst)
  EXPECT_EQ(top[1].dst, 2u);

  // Engine traces read back as their records too, whatever the engine,
  // worker count, transport, faults and trace options.
  const auto reads_back = [](const obs::RunTrace& recorded,
                             const std::string& what) {
    ASSERT_TRUE(recorded.enabled()) << what;
    ASSERT_FALSE(recorded.rounds().empty()) << what;
    std::ostringstream jsonl;
    recorded.write_jsonl(jsonl);
    EXPECT_EQ(parse_single(jsonl.str()), recorded.instance()) << what;
  };
  const Graph g = trace_host();
  const auto factory = detect::pipelined_cycle_program(4);
  const auto sync_trace = [&](std::uint32_t workers,
                              const obs::TraceOptions& options) {
    congest::NetworkConfig cfg;
    cfg.bandwidth = 64;
    cfg.max_rounds = 200;
    cfg.seed = 5;
    cfg.shard.workers = workers;
    cfg.trace = options;
    return congest::Network(g, cfg).run(factory).trace;
  };
  obs::TraceOptions on;
  on.enabled = true;
  reads_back(sync_trace(1, on), "sync, W = 1, per-node rows");
  reads_back(sync_trace(3, on), "sync, W = 3, per-node rows");
  obs::TraceOptions lean = on;
  lean.per_node = false;
  lean.histogram = false;
  reads_back(sync_trace(3, lean), "sync, W = 3, no rows, no histogram");
  obs::TraceOptions edged = on;
  edged.per_node = false;
  edged.per_edge = true;
  reads_back(sync_trace(1, edged), "sync, per-edge");

  const obs::RunTrace amplified = traced_run(g, 1, true, 4).trace;
  ASSERT_EQ(amplified.segments(), 4u);
  reads_back(amplified, "amplified, 4 segments");

  congest::AsyncConfig raw;
  raw.bandwidth = 64;
  raw.max_pulses = 200;
  raw.seed = 5;
  raw.trace = on;
  reads_back(congest::run_async(g, raw, factory).trace, "async raw");

  congest::AsyncConfig reliable = raw;
  reliable.transport = congest::TransportMode::Reliable;
  reliable.faults.drop = 0.2;
  reliable.faults.corrupt = 0.05;
  reliable.faults.crashes = {{3, 2}};
  reliable.recovery.enabled = true;
  reliable.max_pulses = 2000;
  congest::AsyncRunOutcome healed = congest::run_async(g, reliable, factory);
  ASSERT_FALSE(healed.trace.instance().counters.empty());
  healed.trace.set_meta("program", "pipelined_cycle");
  healed.trace.set_meta("n", std::to_string(g.num_vertices()));
  reads_back(healed.trace, "async reliable, faults, recovery, meta, counters");

  congest::AsyncConfig paused = reliable;
  paused.checkpoint_at_pulse = 3;
  const auto full = congest::run_async(g, paused, factory);
  ASSERT_NE(full.checkpoint, nullptr);
  reads_back(congest::resume_async(g, paused, factory, *full.checkpoint).trace,
             "resumed async");
}

// Record equality sees every value a line states: records that differ in
// one phase label, node row, edge, counter or meta value compare unequal,
// and write different bytes.
TEST(TraceAnalysis, RecordEqualityTellsApartTracesDifferingInOneValue) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.per_edge = true;
  obs::RunTrace trace(3, opts);
  trace.record(0, 0, 1, 8);
  trace.record(1, 2, 0, 16);
  trace.set_phase(0, "seed");
  trace.set_phase(1, "echo");
  trace.set_meta("program", "toy");
  trace.add_counter("retransmissions", 2);
  trace.finish_run(2);
  const obs::TraceInstance& base = trace.instance();
  const auto bytes = [](const obs::TraceInstance& instance) {
    std::ostringstream os;
    obs::write_trace_jsonl(os, instance);
    return os.str();
  };
  const auto differs = [&](const std::string& what, const auto& edit) {
    obs::TraceInstance changed = base;
    edit(changed);
    EXPECT_NE(changed, base) << what;
    EXPECT_NE(bytes(changed), bytes(base)) << what;
  };
  differs("phase label", [](auto& t) { t.rounds[1].phase = "seed"; });
  differs("node row", [](auto& t) {
    std::swap(t.rounds[0].node_messages[0], t.rounds[0].node_messages[1]);
    std::swap(t.rounds[0].node_bits[0], t.rounds[0].node_bits[1]);
  });
  differs("edge", [](auto& t) { t.edges[0].dst = 2; });
  differs("counter", [](auto& t) { t.counters[0].second = 3; });
  differs("meta value", [](auto& t) { t.meta[0].second = "other"; });
  EXPECT_EQ(obs::TraceInstance(base), base);
}

TEST(TraceAnalysis, ParseRejectsMalformedStreams) {
  std::istringstream no_summary(
      R"({"type":"header","schema":"csd-trace-v2","nodes":1,"rounds":0,)"
      R"("segments":1,"per_node":false,"per_edge":false})"
      "\n");
  EXPECT_THROW(obs::parse_trace_jsonl(no_summary), CheckFailure);

  std::istringstream orphan_round(
      R"({"type":"round","round":0,"messages":0,"bits":0})"
      "\n");
  EXPECT_THROW(obs::parse_trace_jsonl(orphan_round), CheckFailure);

  std::istringstream bad_schema(
      R"({"type":"header","schema":"csd-trace-v9","nodes":1,"rounds":0,)"
      R"("segments":1,"per_node":false})"
      "\n");
  EXPECT_THROW(obs::parse_trace_jsonl(bad_schema), CheckFailure);
}

// Each csd-trace-v2 line kind is one record run through one field list:
// encode gives the writer's bytes, and decode then encode gives them back,
// with every if_present member written and with none.
TEST(TraceAnalysis, EachLineKindRoundTripsThroughItsFieldList) {
  using Type = obs::TraceLine::Type;
  const auto round_trip = [](const obs::TraceLine& line,
                             const std::string& expected) {
    const std::string text =
        obs::encode(line, obs::trace_line_fields).dump(-1);
    EXPECT_EQ(text, expected);
    const auto back = obs::decode<obs::TraceLine>(obs::Json::parse(text),
                                                  obs::trace_line_fields);
    EXPECT_EQ(back.type, line.type);
    EXPECT_EQ(obs::encode(back, obs::trace_line_fields).dump(-1), expected);
  };

  obs::TraceLine header;
  header.header.nodes = 3;
  header.counts.rounds = 4;
  header.counts.segments = 2;
  header.header.per_node = true;
  header.header.meta = {{"program", "toy"}, {"n", "3"}};
  header.header.segment_starts = {0, 2};
  round_trip(header,
             R"({"type":"header","schema":"csd-trace-v2","nodes":3,)"
             R"("rounds":4,"segments":2,"per_node":true,"per_edge":false,)"
             R"("meta":{"program":"toy","n":"3"},"segment_starts":[0,2]})");
  header.header.meta.clear();
  header.header.segment_starts.clear();
  round_trip(header,
             R"({"type":"header","schema":"csd-trace-v2","nodes":3,)"
             R"("rounds":4,"segments":2,"per_node":true,"per_edge":false})");

  obs::TraceLine round;
  round.type = Type::Round;
  round.round = {3, 2, 40, "echo", {0, 2, 0}, {0, 40, 0}};
  round_trip(round,
             R"({"type":"round","round":3,"messages":2,"bits":40,)"
             R"("phase":"echo","node_messages":[0,2,0],)"
             R"("node_bits":[0,40,0]})");
  round.round.phase.reset();
  round.round.node_messages.clear();
  round.round.node_bits.clear();
  round_trip(round, R"({"type":"round","round":3,"messages":2,"bits":40})");

  obs::TraceLine edge;
  edge.type = Type::Edge;
  edge.edge = {4294967295u, 1, 2, 40};
  round_trip(edge, R"({"type":"edge","src":4294967295,"dst":1,)"
                   R"("messages":2,"bits":40})");

  obs::TraceLine summary;
  summary.type = Type::Summary;
  summary.counts.total_messages = 2;
  summary.counts.total_bits = 40;
  summary.summary.size_histogram = std::vector<std::uint64_t>{};
  summary.counts.phases = {{"echo", 1, 2, 40}};
  summary.summary.counters = {{"acks", 5}};
  round_trip(summary,
             R"({"type":"summary","total_messages":2,"total_bits":40,)"
             R"("size_histogram":[],"phases":[{"name":"echo","rounds":1,)"
             R"("messages":2,"bits":40}],"counters":{"acks":5}})");
  summary.summary.size_histogram.reset();
  summary.counts.phases.clear();
  summary.summary.counters.clear();
  round_trip(summary,
             R"({"type":"summary","total_messages":2,"total_bits":40})");
}

// A line the writer cannot produce fails its decode, naming the key.
TEST(TraceAnalysis, LineDecodeRejectsWhatTheWriterCannotProduce) {
  const auto rejects = [](const std::string& text, const std::string& key) {
    try {
      obs::decode<obs::TraceLine>(obs::Json::parse(text),
                                  obs::trace_line_fields);
      ADD_FAILURE() << "accepted " << text;
    } catch (const CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what()).find("'" + key + "'"),
                std::string::npos)
          << failure.what();
    }
  };
  rejects(R"({"type":"header","schema":"csd-trace-v2","nodes":1,"rounds":0,)"
          R"("segments":0,"per_node":false,"per_edge":false,"meta":{}})",
          "meta");
  rejects(R"({"type":"round","round":0,"messages":0,"bits":0,"phase":null})",
          "phase");
  rejects(R"({"type":"edge","src":0,"dst":4294967296,"messages":0,"bits":0})",
          "dst");
  rejects(R"({"type":"summary","total_messages":0,"total_bits":0,)"
          R"("counters":{"acks":-1}})",
          "counters");
  rejects(R"({"type":"footer"})", "type");
}

// parse_trace_jsonl checks what ties an instance's lines together; each
// stream below breaks one tie and fails naming the line and the key.
TEST(TraceAnalysis, ParseRejectsLinesThatDisagreeWithTheirInstance) {
  const std::string header =
      R"({"type":"header","schema":"csd-trace-v2","nodes":2,"rounds":2,)"
      R"("segments":1,"per_node":false,"per_edge":true})";
  const std::string rounds =
      R"({"type":"round","round":0,"messages":1,"bits":8})"
      "\n"
      R"({"type":"round","round":1,"messages":1,"bits":16})";
  const std::string edges =
      R"({"type":"edge","src":0,"dst":1,"messages":1,"bits":8})"
      "\n"
      R"({"type":"edge","src":1,"dst":0,"messages":1,"bits":16})";
  const std::string summary =
      R"({"type":"summary","total_messages":2,"total_bits":24})";
  const auto parse = [](const std::string& text) {
    std::istringstream is(text + "\n");
    return obs::parse_trace_jsonl(is);
  };
  ASSERT_EQ(
      obs::trace_counts(
          parse(header + "\n" + rounds + "\n" + edges + "\n" + summary)
              .front())
          .total_bits,
      24u);
  const auto rejects = [&](std::string text, const std::string& from,
                           const std::string& to, const std::string& line,
                           const std::string& key) {
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    try {
      parse(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const CheckFailure& failure) {
      const std::string what = failure.what();
      EXPECT_EQ(what.rfind("trace line " + line + ":", 0), 0u) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  };
  const std::string good =
      header + "\n" + rounds + "\n" + edges + "\n" + summary;
  rejects(good, R"("rounds":2)", R"("rounds":3)", "4", "'rounds'");
  rejects(good, R"("rounds":2)", R"("rounds":1)", "4", "'rounds'");
  rejects(good, R"("round":1)", R"("round":2)", "3", "'round'");
  rejects(good, R"("segments":1)", R"("segments":2)", "1", "'segments'");
  rejects(good, R"("per_node":false)", R"("per_node":true)", "2",
          "'node_messages'");
  rejects(good, R"("bits":8})", R"("bits":8,"node_messages":[1,0],)"
                                R"("node_bits":[8,0]})",
          "2", "'node_messages'");
  rejects(good, R"("src":1,"dst":0)", R"("src":0,"dst":1)", "5", "'src'");
  rejects(good, R"("src":1,"dst":0)", R"("src":1,"dst":2)", "5", "'dst'");
  rejects(good, R"("per_edge":true)", R"("per_edge":false)", "4",
          "per_edge");
  rejects(good, R"("total_bits":24)", R"("total_bits":25)", "6",
          "'total_bits'");
  rejects(good, R"("dst":0,"messages":1,"bits":16)",
          R"("dst":0,"messages":1,"bits":17)", "6", "'total_bits'");
  rejects(good, R"("csd-trace-v2")", R"("csd-trace-v1")", "1", "'schema'");

  // A summary's size histogram counts every message once.
  const std::string histogram =
      R"({"type":"summary","total_messages":2,"total_bits":24,)"
      R"("size_histogram":[0,0,0,0,1,1]})";
  ASSERT_EQ(parse(header + "\n" + rounds + "\n" + edges + "\n" + histogram)
                .front()
                .size_histogram->size(),
            6u);
  rejects(header + "\n" + rounds + "\n" + edges + "\n" + histogram,
          R"([0,0,0,0,1,1])", R"([0,0,0,0,1,2])", "6", "'size_histogram'");

  // A per-node row has one entry per node and splits its line's totals.
  const std::string per_node =
      R"({"type":"header","schema":"csd-trace-v2","nodes":2,"rounds":1,)"
      R"("segments":1,"per_node":true,"per_edge":false})"
      "\n"
      R"({"type":"round","round":0,"messages":3,"bits":24,)"
      R"("node_messages":[1,2],"node_bits":[8,16]})"
      "\n"
      R"({"type":"summary","total_messages":3,"total_bits":24})";
  ASSERT_EQ(parse(per_node).front().rounds[0].node_bits[1], 16u);
  rejects(per_node, R"("node_messages":[1,2])", R"("node_messages":[1,2,0])",
          "2", "'node_messages'");
  rejects(per_node, R"("node_bits":[8,16])", R"("node_bits":[8,15])", "2",
          "'node_bits'");

  // A summary's `phases` are the sums over the round lines labelled with
  // each name: distinct names, covering every label.
  const std::string phased =
      R"({"type":"header","schema":"csd-trace-v2","nodes":2,"rounds":3,)"
      R"("segments":1,"per_node":false,"per_edge":false})"
      "\n"
      R"({"type":"round","round":0,"messages":1,"bits":8,"phase":"a"})"
      "\n"
      R"({"type":"round","round":1,"messages":1,"bits":16,"phase":"b"})"
      "\n"
      R"({"type":"round","round":2,"messages":0,"bits":0,"phase":"a"})"
      "\n"
      R"({"type":"summary","total_messages":2,"total_bits":24,"phases":[)"
      R"({"name":"a","rounds":2,"messages":1,"bits":8},)"
      R"({"name":"b","rounds":1,"messages":1,"bits":16}]})";
  ASSERT_EQ(obs::trace_counts(parse(phased).front()).phases.size(), 2u);
  rejects(phased, R"("bits":8},)", R"("bits":9},)", "5", "'phases'");
  rejects(phased, R"("rounds":2,"messages":1)", R"("rounds":1,"messages":1)",
          "5", "'phases'");
  rejects(phased, R"("name":"b")", R"("name":"a")", "5", "'phases'");
  rejects(phased, R"("phase":"b")", R"("phase":"c")", "5", "'phases'");
  // ... listed in the order the round lines first carry each name.
  rejects(phased,
          R"({"name":"a","rounds":2,"messages":1,"bits":8},)"
          R"({"name":"b","rounds":1,"messages":1,"bits":16})",
          R"({"name":"b","rounds":1,"messages":1,"bits":16},)"
          R"({"name":"a","rounds":2,"messages":1,"bits":8})",
          "5", "'phases'");

  // A summary's counters are the writer's: non-zero values under strictly
  // ascending names.
  const std::string counted =
      R"({"type":"summary","total_messages":2,"total_bits":24,)"
      R"("counters":{"crashed_nodes":1,"frames_dropped":4,"violations":2}})";
  const std::string faulty =
      header + "\n" + rounds + "\n" + edges + "\n" + counted;
  ASSERT_EQ(parse(faulty).front().counters.size(), 3u);
  rejects(faulty, R"("frames_dropped":4)", R"("frames_dropped":0)", "6",
          "'counters'");
  rejects(faulty, R"("crashed_nodes":1,"frames_dropped":4,"violations":2)",
          R"("violations":2,"crashed_nodes":1,"frames_dropped":4)", "6",
          "'counters'");
  rejects(header + "\n" + rounds + "\n" + edges + "\n" + summary,
          R"("total_bits":24})",
          R"("total_bits":24,"counters":{"watchdog_stalls":0}})", "6",
          "'counters'");
}

TEST(TraceAnalysis, FitPowerLawRecoversSyntheticExponent) {
  std::vector<std::pair<double, double>> xy;
  for (const double x : {8.0, 16.0, 32.0, 64.0, 128.0})
    xy.emplace_back(x, 3.0 * std::pow(x, 0.7));
  const auto fit = obs::fit_power_law(xy);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->exponent, 0.7, 1e-9);
  EXPECT_NEAR(fit->log_coeff, std::log(3.0), 1e-9);
  EXPECT_EQ(fit->points, 5u);

  // A slope needs two distinct abscissae.
  EXPECT_FALSE(obs::fit_power_law({{4.0, 1.0}, {4.0, 2.0}}).has_value());
  EXPECT_FALSE(obs::fit_power_law({{4.0, 1.0}}).has_value());
  // Non-positive points are skipped, not fatal.
  xy.emplace_back(0.0, 5.0);
  EXPECT_NEAR(obs::fit_power_law(xy)->exponent, 0.7, 1e-9);
}

TEST(TraceAnalysis, RoundsVsNGroupsByMetaGroupThenProgram) {
  const auto make = [](const char* program, const char* group, const char* n,
                       std::uint64_t rounds) {
    obs::TraceOptions opts;
    opts.enabled = true;
    opts.per_node = false;
    obs::RunTrace trace(2, opts);
    trace.set_meta("program", program);
    if (group != nullptr) trace.set_meta("group", group);
    trace.set_meta("n", n);
    trace.finish_run(rounds);
    std::ostringstream os;
    trace.write_jsonl(os);
    return os.str();
  };
  const std::string jsonl = make("even_cycle", nullptr, "128", 85) +
                            make("even_cycle", nullptr, "512", 155) +
                            make("even_cycle", "negatives", "128", 85);
  std::istringstream is(jsonl);
  const auto instances = obs::parse_trace_jsonl(is);
  const auto groups = obs::rounds_vs_n_points(instances);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, "even_cycle");
  ASSERT_EQ(groups[0].second.size(), 2u);
  EXPECT_EQ(groups[1].first, "negatives");
  const auto fit = obs::fit_power_law(groups[0].second);
  ASSERT_TRUE(fit.has_value());
  // ln(155/85) / ln(4) — comfortably under the Thm 1.1 exponent of 0.5.
  EXPECT_NEAR(fit->exponent, 0.433, 0.01);
}

// --------------------------------------------------------- ChromeTrace ----

TEST(ChromeTrace, EmitsValidTraceEventJson) {
  const Graph g = trace_host();
  obs::TraceOptions opts;
  opts.enabled = true;
  const auto outcome = traced_run_opts(g, 1, opts, 2);
  std::ostringstream jsonl;
  outcome.trace.write_jsonl(jsonl);
  std::istringstream is(jsonl.str());
  const auto instances = obs::parse_trace_jsonl(is);

  std::ostringstream os;
  obs::write_chrome_trace(os, instances);
  const obs::Json doc = obs::Json::parse(os.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());

  bool saw_process_name = false, saw_span = false, saw_counter = false;
  for (const obs::Json& event : events) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") {
      saw_process_name = true;
      EXPECT_EQ(event.at("name").as_string(), "process_name");
    } else if (ph == "X") {
      saw_span = true;
      EXPECT_GT(event.at("dur").as_uint(), 0u);
      EXPECT_FALSE(event.at("name").as_string().empty());
    } else if (ph == "C") {
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);  // run is far below counter_round_cap
}

TEST(ChromeTrace, CounterTrackRespectsRoundCap) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.per_node = false;
  obs::RunTrace trace(2, opts);
  trace.record(0, 0, 1, 8);
  trace.set_phase(0, "only");
  trace.finish_run(8);
  std::ostringstream jsonl;
  trace.write_jsonl(jsonl);
  std::istringstream is(jsonl.str());
  const auto instances = obs::parse_trace_jsonl(is);

  obs::ChromeTraceOptions chrome;
  chrome.counter_round_cap = 4;  // 8 rounds > cap: no counter track
  std::ostringstream os;
  obs::write_chrome_trace(os, instances, chrome);
  const obs::Json doc = obs::Json::parse(os.str());
  bool saw_counter = false, saw_span = false;
  for (const obs::Json& event : doc.at("traceEvents").items()) {
    saw_counter = saw_counter || event.at("ph").as_string() == "C";
    saw_span = saw_span || event.at("ph").as_string() == "X";
  }
  EXPECT_FALSE(saw_counter);
  EXPECT_TRUE(saw_span);  // spans always survive the cap
}

// ------------------------------------------------------ csd-metrics-v2 ----

TEST(RunTrace, SummaryCountersEmitSortedByName) {
  obs::TraceOptions opts;
  opts.enabled = true;
  obs::RunTrace trace(2, opts);
  trace.add_counter("zeta", 1);  // insertion order deliberately unsorted
  trace.add_counter("alpha", 2);
  trace.add_counter("mid", 0);  // zero: omitted from the summary entirely
  trace.add_counter("zeta", 2);  // adds into the existing row
  std::ostringstream os;
  trace.write_jsonl(os);
  // DESIGN.md §14: summary counters serialize in sorted-name order, so the
  // summary line is independent of engine registration order.
  EXPECT_NE(os.str().find(R"("counters":{"alpha":2,"zeta":3})"),
            std::string::npos)
      << os.str();
}

TEST(TelemetryV2, CountersGaugesHistogramsRegisterAndSnapshot) {
  obs::Telemetry telemetry;
  const obs::Counter hits = telemetry.counter("hits");
  hits.add();
  hits.add(4);
  EXPECT_EQ(hits.value(), 5u);
  // Same name resolves to the same cell.
  EXPECT_EQ(telemetry.counter("hits").value(), 5u);

  const obs::Gauge depth = telemetry.gauge("depth");
  depth.set(7);
  depth.set(3);
  EXPECT_EQ(depth.value(), 3u);
  EXPECT_EQ(depth.high_water(), 7u);

  const obs::Histogram sizes = telemetry.histogram("sizes");
  sizes.observe(0);  // bucket 0: zeros
  sizes.observe(1);  // bucket 1: [1, 2)
  sizes.observe(5);  // bucket 3: [4, 8)
  const obs::Json doc = telemetry.metrics_json();
  EXPECT_EQ(doc.at("counters").at("hits").as_uint(), 5u);
  EXPECT_EQ(doc.at("gauges").at("depth").at("value").as_uint(), 3u);
  EXPECT_EQ(doc.at("gauges").at("depth").at("high_water").as_uint(), 7u);
  const auto& buckets = doc.at("histograms").at("sizes").items();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].items()[0].as_uint(), 0u);
  EXPECT_EQ(buckets[0].items()[1].as_uint(), 1u);
  EXPECT_EQ(buckets[2].items()[0].as_uint(), 3u);
}

TEST(TelemetryV2, NullHandlesAreInert) {
  // Default-constructed handles are the disabled path: safe no-ops.
  const obs::Counter counter;
  const obs::Gauge gauge;
  const obs::Histogram histogram;
  counter.add(3);
  gauge.set(9);
  histogram.observe(42);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0u);
  EXPECT_EQ(gauge.high_water(), 0u);
}

TEST(TelemetryV2, WorkerCounterNamesAreStable) {
  EXPECT_EQ(obs::worker_counter_name("shard_channel_frames", 3),
            "shard_channel_frames_w3");
}

TEST(TelemetryV2, FlightRecorderKeepsTheMostRecentEvents) {
  // Requested capacities round up to the 64-slot floor.
  obs::Telemetry telemetry(/*ring_capacity=*/4);
  for (std::uint64_t i = 0; i < 100; ++i)
    telemetry.record(obs::EventKind::Retransmit, 1, i, i * 10);
  EXPECT_EQ(telemetry.events_recorded(), 100u);
  const auto events = telemetry.events();
  ASSERT_EQ(events.size(), 64u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at, 36u + i);  // oldest-first window [36, 100)
    EXPECT_EQ(events[i].kind, obs::EventKind::Retransmit);
  }

  const obs::Json doc = telemetry.blackbox_json("unit-test");
  EXPECT_EQ(doc.at("schema").as_string(), "csd-blackbox-v1");
  EXPECT_EQ(doc.at("reason").as_string(), "unit-test");
  EXPECT_EQ(doc.at("events_recorded").as_uint(), 100u);
  EXPECT_EQ(doc.at("events_kept").as_uint(), 64u);
  EXPECT_EQ(doc.at("torn").as_uint(), 0u);
  ASSERT_EQ(doc.at("events").items().size(), 64u);
  EXPECT_EQ(doc.at("events").items()[0].at("kind").as_string(),
            "retransmit");
}

TEST(TelemetryV2, SamplerSeriesRoundTripsThroughParser) {
  const std::string path = testing::TempDir() + "csd_metrics_series.jsonl";
  obs::Telemetry telemetry;
  const obs::Counter ticks = telemetry.counter("ticks");
  const obs::Histogram payload = telemetry.histogram("payload");
  telemetry.start_sampler(path, /*period_ms=*/60000);
  EXPECT_TRUE(telemetry.sampling());
  ticks.add(17);
  payload.observe(9);  // bucket 4: [8, 16)
  telemetry.stop_sampler();  // flushes one final sample
  EXPECT_FALSE(telemetry.sampling());

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  const obs::MetricsSeries series = obs::parse_metrics_series(is);
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.back().counter("ticks"), 17u);
  using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  ASSERT_EQ(series.back().histograms.size(), 1u);
  EXPECT_EQ(series.back().histograms[0].first, "payload");
  EXPECT_EQ(series.back().histograms[0].second, (Buckets{{4, 1}}));
}

// A series line and a dump are each one record run through one field
// list: encode gives the writer's bytes, decode then encode gives them back.
TEST(TelemetryV2, SeriesLineAndDumpRoundTripThroughTheirFieldLists) {
  obs::MetricsSample sample;
  sample.sample = 2;
  sample.epoch_ms = 1000;
  sample.events_recorded = 7;
  sample.counters = {{"acks", 3}, {"drops", 0}};
  sample.gauges = {{"queue", {4, 9}}};
  sample.histograms = {{"payload", {{0, 1}, {4, 2}}}};
  const std::string line =
      obs::encode(sample, obs::metrics_sample_fields).dump(-1);
  EXPECT_EQ(line,
            R"({"schema":"csd-metrics-v2","sample":2,"epoch_ms":1000,)"
            R"("events_recorded":7,"counters":{"acks":3,"drops":0},)"
            R"("gauges":{"queue":{"value":4,"high_water":9}},)"
            R"("histograms":{"payload":[[0,1],[4,2]]}})");
  const auto sample_back = obs::decode<obs::MetricsSample>(
      obs::Json::parse(line), obs::metrics_sample_fields);
  EXPECT_EQ(obs::encode(sample_back, obs::metrics_sample_fields).dump(-1),
            line);
  EXPECT_EQ(sample_back.gauges, sample.gauges);

  obs::BlackboxDump dump;
  dump.reason = "unit-test";
  dump.epoch_ms = 1000;
  dump.events_recorded = 9;
  dump.torn = 1;
  dump.events = {{obs::EventKind::NodeCrash, 4294967295u, 3, 0, 990},
                 {obs::EventKind::FatalSignal, 0, 0, 11, 999}};
  dump.metrics = sample;
  const obs::Json doc = obs::encode(dump, obs::blackbox_fields);
  EXPECT_EQ(doc.at("events_kept").as_uint(), 2u);
  EXPECT_EQ(doc.at("events").items()[1].at("kind").as_string(),
            "fatal_signal");
  const auto dump_back =
      obs::decode<obs::BlackboxDump>(doc, obs::blackbox_fields);
  EXPECT_EQ(obs::encode(dump_back, obs::blackbox_fields).dump(2),
            doc.dump(2));
  EXPECT_EQ(dump_back.events[0].actor, 4294967295u);
  EXPECT_EQ(dump_back.events[1].kind, obs::EventKind::FatalSignal);

  // The recorder's own dump reads back the same way.
  obs::Telemetry telemetry;
  telemetry.counter("hits").add(2);
  telemetry.gauge("depth").set(5);
  telemetry.histogram("sizes").observe(3);
  telemetry.record(obs::EventKind::Retransmit, 1, 2, 3);
  const obs::Json live = telemetry.blackbox_json("live");
  EXPECT_EQ(obs::encode(obs::decode<obs::BlackboxDump>(live,
                                                       obs::blackbox_fields),
                        obs::blackbox_fields)
                .dump(2),
            live.dump(2));
}

TEST(TelemetryV2, EngineOutcomesBitIdenticalWithTelemetryAttached) {
  const Graph g = trace_host();
  const auto run = [&](obs::Telemetry* telemetry, std::uint32_t workers) {
    detect::EvenCycleConfig cfg;
    cfg.k = 2;
    cfg.repetitions = 4;
    cfg.amplify.early_exit = false;
    cfg.trace.enabled = true;
    cfg.shard.workers = workers;
    cfg.telemetry = telemetry;
    return detect::detect_even_cycle(g, cfg, 64, 5);
  };
  const auto jsonl = [](congest::RunOutcome outcome) {
    std::ostringstream os;
    outcome.trace.write_jsonl(os);
    return os.str();
  };

  auto plain = run(nullptr, 0);
  obs::Telemetry telemetry;
  auto instrumented = run(&telemetry, 0);
  obs::Telemetry sharded_telemetry;
  auto sharded = run(&sharded_telemetry, 2);

  // The telemetry plane is write-only: verdict, metrics and the full trace
  // stream are unaffected by attaching it, on both engines.
  EXPECT_EQ(plain.detected, instrumented.detected);
  EXPECT_EQ(plain.metrics.rounds, instrumented.metrics.rounds);
  EXPECT_EQ(plain.metrics.messages, instrumented.metrics.messages);
  EXPECT_EQ(plain.metrics.total_bits, instrumented.metrics.total_bits);
  EXPECT_EQ(jsonl(plain), jsonl(instrumented));
  EXPECT_EQ(plain.detected, sharded.detected);
  EXPECT_EQ(jsonl(plain), jsonl(sharded));

  // ...and the plane did observe the runs.
  EXPECT_GT(telemetry.counter("sync_rounds").value(), 0u);
  EXPECT_EQ(telemetry.counter("sync_messages").value(),
            instrumented.metrics.messages);
  // One counter per event: the W = 2 run publishes the same sync_* counts
  // as the inline one, plus its channel exchange.
  EXPECT_EQ(sharded_telemetry.counter("sync_rounds").value(),
            sharded.metrics.rounds);
  EXPECT_EQ(sharded_telemetry.counter("sync_messages").value(),
            sharded.metrics.messages);
  EXPECT_GT(sharded_telemetry.events_recorded(), 0u);
}

using Counts = std::map<std::string, std::uint64_t>;

/// A row visitor that adds each row into `counts` as prefix + name, the
/// plane's name for it (or subtracts it, for restored totals).
auto tally(Counts& counts, std::string prefix, bool subtract = false) {
  return [&counts, prefix, subtract](std::string_view name,
                                     std::uint64_t value) {
    std::uint64_t& cell = counts[prefix + std::string(name)];
    cell = subtract ? cell - value : cell + value;
  };
}

/// The plane's rows of a sync run (DESIGN.md §14): its own counts, then its
/// FaultReport's.
void add_sync_rows(Counts& counts, const congest::RunOutcome& out) {
  auto row = tally(counts, "sync_");
  row("rounds", out.metrics.rounds);
  row("messages", out.metrics.messages);
  row("total_bits", out.metrics.total_bits);
  congest::fault_rows(out.faults, row);
}

/// The plane's rows of an async run.
void add_async_rows(Counts& counts, const congest::AsyncAccounting& out,
                    bool subtract = false) {
  auto row = tally(counts, "async_", subtract);
  row("pulses", out.pulses);
  row("frames", out.frames);
  row("acks", out.acks);
  row("payload_bits", out.payload_bits);
  row("overhead_bits", out.overhead_bits);
  row("transport_bits", out.transport_bits);
  congest::fault_rows(out.faults, row);
}

Counts plane_counters(const obs::Telemetry& telemetry) {
  const obs::Json metrics = telemetry.metrics_json();
  Counts counts;
  for (const auto& [name, value] : metrics.at("counters").members())
    counts[name] = value.as_uint();
  return counts;
}

congest::NetworkConfig faulty_sync(obs::Telemetry* telemetry) {
  congest::NetworkConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_rounds = 60;
  cfg.seed = 41;
  cfg.faults.drop = 0.15;
  cfg.faults.corrupt = 0.2;
  cfg.faults.crashes = {{2, 5}, {7, 9}};
  cfg.stall_window = 4;
  cfg.telemetry = telemetry;
  return cfg;
}

congest::AsyncConfig faulty_async(obs::Telemetry* telemetry,
                                  congest::TransportMode mode) {
  congest::AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 120;
  cfg.seed = 23;
  cfg.max_delay = 5;
  cfg.transport = mode;
  cfg.faults.drop = mode == congest::TransportMode::Reliable ? 0.2 : 0.05;
  cfg.telemetry = telemetry;
  return cfg;
}

TEST(TelemetryV2, PlaneCountersEqualTheAttachedRunsRows) {
  // Each engine counts an event once, in its run's outcome, and publishes
  // the outcome's rows: after the runs, every counter on the plane equals
  // its row summed over the runs attached to it.
  Rng rng(4);
  const Graph g = build::gnp(14, 0.25, rng);
  const auto factory = detect::pipelined_cycle_program(4);
  obs::Telemetry telemetry;
  Counts expected;

  // Sync, inline and on three workers, under drops, corruption, crashes
  // and the stall watchdog.
  congest::NetworkConfig sync_cfg = faulty_sync(&telemetry);
  std::uint64_t channel_bytes = 0;  // each worker's bits, rounded up
  for (const std::uint32_t workers : {1u, 3u}) {
    sync_cfg.shard.workers = workers;
    sync_cfg.shard.channel_counters = workers > 1;
    const auto out = congest::Network(g, sync_cfg).run(factory);
    add_sync_rows(expected, out);
    if (workers == 1) continue;
    // The channel exchange: what the run's shard counters report, and every
    // message neither dropped nor shipped was delivered locally.
    std::uint64_t shipped = 0;
    for (std::uint32_t w = 0; w < workers; ++w) {
      const std::string name =
          obs::worker_counter_name("shard_channel_frames", w);
      expected[name] = out.metrics.counters.value(name);
      shipped += expected[name];
      channel_bytes += out.metrics.counters.value(
          obs::worker_counter_name("shard_channel_bytes", w));
    }
    expected["shard_channel_frames"] = shipped;
    expected["shard_local_frames"] =
        out.metrics.messages - out.faults.frames_dropped - shipped;
  }

  // Async, raw and reliable under drops, then a crash the node recovers
  // from.
  for (const auto mode :
       {congest::TransportMode::Raw, congest::TransportMode::Reliable})
    add_async_rows(expected, congest::run_async(
                                 g, faulty_async(&telemetry, mode), factory));
  congest::AsyncConfig recovering =
      faulty_async(&telemetry, congest::TransportMode::Reliable);
  recovering.faults.crashes = {{1, 6}};
  recovering.recovery.enabled = true;
  add_async_rows(expected, congest::run_async(g, recovering, factory));

  Counts plane = plane_counters(telemetry);
  // The run reports its channel traffic as bytes per worker, each rounded
  // up from that worker's bits.
  const std::uint64_t channel_bits = plane["shard_channel_bits"];
  EXPECT_LE(channel_bits, 8 * channel_bytes);
  EXPECT_GE(channel_bits + 7 * 3, 8 * channel_bytes);
  EXPECT_GT(channel_bits, 0u);
  plane.erase("shard_channel_bits");
  EXPECT_EQ(plane, expected);
  // The rows the runs exercised, so the equality above is not 0 == 0.
  for (const char* row :
       {"sync_frames_dropped", "sync_frames_corrupted", "sync_crashed_nodes",
        "sync_watchdog_stalls", "shard_channel_frames", "async_pulses",
        "async_frames_dropped", "async_retransmissions",
        "async_recovered_nodes", "async_replayed_pulses"})
    EXPECT_GT(expected[row], 0u) << row;
}

TEST(TelemetryV2, AResumedRunPublishesOnlyWhatItCounted) {
  // A resume starts from the snapshot's totals: the plane gets the counts
  // the resumed run added, not the ones it restored.
  Rng rng(4);
  const Graph g = build::gnp(14, 0.25, rng);
  const auto factory = detect::pipelined_cycle_program(4);

  congest::AsyncConfig async_cfg =
      faulty_async(nullptr, congest::TransportMode::Reliable);
  async_cfg.checkpoint_at_pulse = 2;
  const auto async_full = congest::run_async(g, async_cfg, factory);
  ASSERT_NE(async_full.checkpoint, nullptr);
  obs::Telemetry async_plane;
  async_cfg.telemetry = &async_plane;
  const auto async_resumed =
      congest::resume_async(g, async_cfg, factory, *async_full.checkpoint);
  Counts async_expected;
  add_async_rows(async_expected, async_resumed);
  add_async_rows(async_expected, async_full.checkpoint->async_state,
                 /*subtract=*/true);
  EXPECT_EQ(plane_counters(async_plane), async_expected);
  EXPECT_GT(async_expected["async_frames"], 0u);
  EXPECT_LT(async_expected["async_frames"], async_resumed.frames);
}

TEST(TelemetryV2, SeriesParserRejectsMalformedStreams) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return obs::parse_metrics_series(is);
  };
  EXPECT_THROW(parse("{\"schema\":\"wrong\"}\n"), CheckFailure);
  EXPECT_THROW(parse("not json\n"), CheckFailure);
}

}  // namespace
}  // namespace csd
