#include "fuzz/fuzz_case.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "detect/clique_detect.hpp"
#include "detect/even_cycle.hpp"
#include "detect/pipelined_cycle.hpp"
#include "detect/tree_detect.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"

namespace csd::fuzz {

const char* to_string(ProgramKind kind) noexcept {
  switch (kind) {
    case ProgramKind::Clique: return "clique";
    case ProgramKind::EvenCycle: return "even-cycle";
    case ProgramKind::PipelinedCycle: return "pipelined-cycle";
    case ProgramKind::Tree: return "tree";
  }
  return "unknown";
}

namespace {

ProgramKind program_from_name(const std::string& name) {
  if (name == "clique") return ProgramKind::Clique;
  if (name == "even-cycle") return ProgramKind::EvenCycle;
  if (name == "pipelined-cycle") return ProgramKind::PipelinedCycle;
  if (name == "tree") return ProgramKind::Tree;
  CSD_CHECK_MSG(false, "unknown fuzz program '" << name << "'");
  return ProgramKind::Clique;
}

}  // namespace

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

obs::Json to_json(const FuzzCase& c) {
  obs::Json j = obs::Json::object();
  j.set("n", c.num_vertices);
  obs::Json edges = obs::Json::array();
  for (const auto& [u, v] : c.edges) {
    obs::Json e = obs::Json::array();
    e.push(u);
    e.push(v);
    edges.push(std::move(e));
  }
  j.set("edges", std::move(edges));
  j.set("program", to_string(c.program));
  j.set("param", c.param);
  j.set("repetitions", c.repetitions);
  j.set("bandwidth", c.bandwidth);
  j.set("seed", c.seed);
  j.set("max_delay", c.max_delay);
  j.set("drop", c.drop);
  j.set("corrupt", c.corrupt);
  j.set("corrupt_headers", c.corrupt_headers);
  obs::Json crashes = obs::Json::array();
  for (const auto& ev : c.crashes) {
    obs::Json e = obs::Json::object();
    e.set("node", ev.node);
    e.set("round", ev.round);
    crashes.push(std::move(e));
  }
  j.set("crashes", std::move(crashes));
  return j;
}

FuzzCase case_from_json(const obs::Json& j) {
  FuzzCase c;
  c.num_vertices = static_cast<std::uint32_t>(j.at("n").as_uint());
  c.edges.clear();
  for (const obs::Json& e : j.at("edges").items()) {
    CSD_CHECK_MSG(e.items().size() == 2, "fuzz case edge wants [u, v]");
    const auto u = static_cast<Vertex>(e.items()[0].as_uint());
    const auto v = static_cast<Vertex>(e.items()[1].as_uint());
    CSD_CHECK_MSG(u < v && v < c.num_vertices,
                  "fuzz case edge {" << u << "," << v << "} not canonical");
    c.edges.emplace_back(u, v);
  }
  CSD_CHECK_MSG(std::is_sorted(c.edges.begin(), c.edges.end()),
                "fuzz case edges not sorted");
  c.program = program_from_name(j.at("program").as_string());
  c.param = static_cast<std::uint32_t>(j.at("param").as_uint());
  c.repetitions = static_cast<std::uint32_t>(j.at("repetitions").as_uint());
  c.bandwidth = j.at("bandwidth").as_uint();
  c.seed = j.at("seed").as_uint();
  c.max_delay = static_cast<std::uint32_t>(j.at("max_delay").as_uint());
  c.drop = j.at("drop").as_double();
  c.corrupt = j.at("corrupt").as_double();
  c.corrupt_headers = j.at("corrupt_headers").as_bool();
  for (const obs::Json& e : j.at("crashes").items()) {
    congest::CrashEvent ev;
    ev.node = static_cast<std::uint32_t>(e.at("node").as_uint());
    ev.round = e.at("round").as_uint();
    c.crashes.push_back(ev);
  }
  return c;
}

}  // namespace csd::fuzz
