#include "fuzz/fuzz_case.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string_view>
#include <utility>

#include "detect/clique_detect.hpp"
#include "detect/even_cycle.hpp"
#include "detect/pipelined_cycle.hpp"
#include "detect/tree_detect.hpp"
#include "graph/builders.hpp"
#include "obs/codec.hpp"
#include "support/check.hpp"

namespace csd::fuzz {

namespace {

constexpr std::array<const char*, 4> kProgramNames = {
    "clique", "even-cycle", "pipelined-cycle", "tree"};

}  // namespace

const char* to_string(ProgramKind kind) noexcept {
  return kProgramNames[static_cast<std::size_t>(kind)];
}

std::size_t tree_catalog_size() noexcept { return 4; }

Graph tree_catalog(std::size_t index) {
  switch (index) {
    case 0: return build::path(3);  // P_3: 0-1-2
    case 1: return build::star(3);  // K_{1,3}
    case 2: return build::path(4);  // P_4
    case 3: {
      // Broom: star edge plus a 2-edge tail — the smallest tree that is
      // neither a path nor a star, exercising the DP's branching.
      Graph t(4);
      t.add_edge(0, 1);
      t.add_edge(0, 2);
      t.add_edge(2, 3);
      return t;
    }
    default:
      CSD_CHECK_MSG(false, "tree catalog index " << index << " out of range");
      return Graph{};
  }
}

Graph build_graph(const FuzzCase& c) {
  Graph g(c.num_vertices);
  for (const auto& [u, v] : c.edges) g.add_edge(u, v);
  g.sort_adjacency();
  return g;
}

Graph pattern_graph(const FuzzCase& c) {
  switch (c.program) {
    case ProgramKind::Clique:
      return build::complete(c.param);
    case ProgramKind::EvenCycle:
    case ProgramKind::PipelinedCycle:
      return build::cycle(c.param);
    case ProgramKind::Tree:
      return tree_catalog(c.param);
  }
  return Graph{};
}

congest::ProgramFactory make_program(const FuzzCase& c) {
  switch (c.program) {
    case ProgramKind::Clique:
      return detect::clique_detect_program(c.param);
    case ProgramKind::EvenCycle: {
      detect::EvenCycleConfig ec;
      ec.k = c.param / 2;
      return detect::even_cycle_program(ec);
    }
    case ProgramKind::PipelinedCycle:
      return detect::pipelined_cycle_program(c.param);
    case ProgramKind::Tree:
      return detect::tree_detect_program(tree_catalog(c.param));
  }
  return {};
}

namespace {

// Forwards every NodeApi call to the engine's node except sleep_until,
// which stays the base class's no-op.
class HintlessApi final : public congest::NodeApi {
 public:
  explicit HintlessApi(congest::NodeApi& api) : api_(api) {}
  congest::NodeId id() const override { return api_.id(); }
  std::uint32_t degree() const override { return api_.degree(); }
  congest::NodeId neighbor_id(std::uint32_t port) const override {
    return api_.neighbor_id(port);
  }
  std::uint64_t round() const override { return api_.round(); }
  std::uint64_t network_size() const override { return api_.network_size(); }
  std::uint64_t namespace_size() const override {
    return api_.namespace_size();
  }
  std::uint64_t bandwidth() const override { return api_.bandwidth(); }
  const BitVec* inbox(std::uint32_t port) const override {
    return api_.inbox(port);
  }
  void send(std::uint32_t port, BitVec payload) override {
    api_.send(port, std::move(payload));
  }
  void broadcast(const BitVec& payload) override { api_.broadcast(payload); }
  Rng& rng() override { return api_.rng(); }
  BitVec scratch() override { return api_.scratch(); }
  void phase(std::string_view name) override { api_.phase(name); }
  void reject() override { api_.reject(); }
  void halt() override { api_.halt(); }

 private:
  congest::NodeApi& api_;
};

class HintlessProgram final : public congest::NodeProgram {
 public:
  explicit HintlessProgram(std::unique_ptr<congest::NodeProgram> inner)
      : inner_(std::move(inner)) {}
  void on_round(congest::NodeApi& api) override {
    HintlessApi hintless(api);
    inner_->on_round(hintless);
  }

 private:
  std::unique_ptr<congest::NodeProgram> inner_;
};

}  // namespace

congest::ProgramFactory ignore_activity_hints(congest::ProgramFactory factory) {
  return [factory = std::move(factory)](
             std::uint32_t v) -> std::unique_ptr<congest::NodeProgram> {
    std::unique_ptr<congest::NodeProgram> inner = factory(v);
    if (inner == nullptr) return nullptr;
    return std::make_unique<HintlessProgram>(std::move(inner));
  };
}

std::uint64_t effective_bandwidth(const FuzzCase& c, const Graph& host) {
  const std::uint64_t n = host.num_vertices();
  std::uint64_t min_b = 1;
  switch (c.program) {
    case ProgramKind::Clique:
      min_b = detect::clique_detect_min_bandwidth(n);
      break;
    case ProgramKind::EvenCycle: {
      detect::EvenCycleConfig ec;
      ec.k = c.param / 2;
      min_b = detect::even_cycle_min_bandwidth(n, ec);
      break;
    }
    case ProgramKind::PipelinedCycle:
      min_b = detect::pipelined_cycle_min_bandwidth(n, c.param);
      break;
    case ProgramKind::Tree:
      min_b = detect::tree_detect_min_bandwidth(tree_catalog(c.param));
      break;
  }
  return std::max(c.bandwidth, min_b);
}

std::uint64_t round_budget(const FuzzCase& c, const Graph& host,
                           std::uint64_t bandwidth) {
  const std::uint64_t n = host.num_vertices();
  switch (c.program) {
    case ProgramKind::Clique:
      return detect::clique_detect_round_budget(n, host.max_degree(),
                                                bandwidth) +
             2;
    case ProgramKind::EvenCycle: {
      detect::EvenCycleConfig ec;
      ec.k = c.param / 2;
      return detect::make_even_cycle_schedule(n, ec).total_rounds() + 1;
    }
    case ProgramKind::PipelinedCycle:
      return detect::pipelined_cycle_round_budget(n, c.param) + 1;
    case ProgramKind::Tree:
      return detect::tree_detect_round_budget(tree_catalog(c.param)) + 1;
  }
  return 1;
}

congest::FaultPlan fault_plan(const FuzzCase& c) {
  congest::FaultPlan plan;
  plan.drop = c.drop;
  plan.corrupt = c.corrupt;
  plan.corrupt_headers = c.corrupt_headers;
  plan.crashes = c.crashes;
  return plan;
}

namespace {

// One field list per csd-fuzz-case-v1 record (obs/codec.hpp): the same list
// writes a record and reads it back strictly.

void check_canonical_edges(const FuzzCase& c) {
  for (const auto& [u, v] : c.edges)
    CSD_CHECK_MSG(u < v && v < c.num_vertices,
                  "fuzz case edge {" << u << "," << v << "} not canonical");
  CSD_CHECK_MSG(std::is_sorted(c.edges.begin(), c.edges.end()),
                "fuzz case edges not sorted");
}

constexpr auto crash_fields = [](auto& io, auto& r) {
  io("node", r.node);
  io("round", r.round);
};

constexpr auto case_fields = [](auto& io, auto& r) {
  io("n", r.num_vertices);
  io("edges", r.edges);
  if (io.reading) check_canonical_edges(r);
  io("program", r.program, kProgramNames);
  io("param", r.param);
  io("repetitions", r.repetitions);
  io("bandwidth", r.bandwidth);
  io("seed", r.seed);
  io("max_delay", r.max_delay);
  io("drop", r.drop);
  io("corrupt", r.corrupt);
  io("corrupt_headers", r.corrupt_headers);
  io("crashes", r.crashes, crash_fields);
};

struct CorpusEntry {
  Divergence found;
  FuzzCase c;
  CaseExpectation expect;
};

constexpr auto divergence_fields = [](auto& io, auto& r) {
  io("check", r.check);
  io("detail", r.detail);
};

constexpr auto expectation_fields = [](auto& io, auto& r) {
  io("truth", r.truth);
  io("detected", r.detected);
};

constexpr auto corpus_fields = [](auto& io, auto& r) {
  io.tag("schema", "csd-fuzz-case-v1");
  io("found", r.found, divergence_fields);
  io("case", r.c, case_fields);
  io("expect", r.expect, expectation_fields);
};

}  // namespace

obs::Json to_json(const FuzzCase& c) { return obs::encode(c, case_fields); }

FuzzCase case_from_json(const obs::Json& j) {
  return obs::decode<FuzzCase>(j, case_fields);
}

obs::Json corpus_json(const FuzzCase& c, const Divergence& found,
                      const CaseExpectation& expect) {
  return obs::encode(CorpusEntry{found, c, expect}, corpus_fields);
}

FuzzCase corpus_case(const obs::Json& doc, CaseExpectation* expect,
                     Divergence* found) {
  CorpusEntry entry = obs::decode<CorpusEntry>(doc, corpus_fields);
  if (expect != nullptr) *expect = entry.expect;
  if (found != nullptr) *found = std::move(entry.found);
  return std::move(entry.c);
}

}  // namespace csd::fuzz
