#include "congest/network.hpp"

#include <unordered_map>
#include <utility>

#include "congest/shard.hpp"
#include "support/check.hpp"

namespace csd::congest {

// Port mapping: port p of node v leads to neighbors(v)[p]; for delivery we
// need the reverse port on the receiving side. Per-vertex port maps make
// the build O(sum deg) expected time (a std::find scan per neighbor would
// be O(sum deg^2)). The tables are flat arrays over the CSR's dense
// directed-edge index, so the delivery loop walks them linearly with no
// pointer chasing.
detail::EdgeTables detail::build_edge_tables(const GraphCsr& csr,
                                             const std::vector<NodeId>& ids) {
  const auto n = static_cast<Vertex>(ids.size());
  std::vector<std::unordered_map<Vertex, std::uint32_t>> port_of(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr.row(v);
    port_of[v].reserve(nbrs.size());
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) port_of[v][nbrs[p]] = p;
  }
  const auto m2 = static_cast<std::size_t>(csr.num_directed_edges());
  EdgeTables tables;
  tables.rev_port.resize(m2);
  tables.rev_edge.resize(m2);
  tables.neighbor_ids.resize(m2);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr.row(v);
    const std::uint64_t base = csr.offsets[v];
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const Vertex w = nbrs[p];
      const auto it = port_of[w].find(v);
      CSD_CHECK(it != port_of[w].end());
      tables.rev_port[base + p] = it->second;
      tables.rev_edge[base + p] = csr.offsets[w] + it->second;
      tables.neighbor_ids[base + p] = ids[w];
    }
  }
  return tables;
}

Network::Network(Graph topology, NetworkConfig config)
    : topology_(std::move(topology)), config_(config) {
  ids_.resize(topology_.num_vertices());
  for (Vertex v = 0; v < topology_.num_vertices(); ++v) ids_[v] = v;
  csr_ = &topology_.csr();
  tables_ = detail::build_edge_tables(*csr_, ids_);
}

Network::Network(Graph topology, NetworkConfig config,
                 std::vector<NodeId> ids)
    : topology_(std::move(topology)), config_(config), ids_(std::move(ids)) {
  CSD_CHECK_MSG(ids_.size() == topology_.num_vertices(),
                "identifier assignment size mismatch");
  csr_ = &topology_.csr();
  tables_ = detail::build_edge_tables(*csr_, ids_);
}

// NetworkConfig::shard is deliberately NOT digested: the round kernel is
// bit-identical at every worker count, so an amplified checkpoint written
// at one worker count resumes at any other (test_shard pins this).
std::uint64_t Network::config_digest() const {
  std::uint64_t h = kDigestSeed;
  h = digest_mix(h, config_.bandwidth);
  h = digest_mix(h, config_.max_rounds);
  h = digest_mix(h, config_.namespace_size);
  h = digest_mix(h, config_.broadcast_only ? 1 : 0);
  h = digest_mix(h, fault_plan_digest(config_.faults));
  return h;
}

RunOutcome Network::run(const ProgramFactory& factory) const {
  return detail::run_rounds(*this, factory, config_.seed);
}

RunOutcome Network::run(const ProgramFactory& factory,
                        std::uint64_t seed) const {
  return detail::run_rounds(*this, factory, seed);
}

RunOutcome run_congest(const Graph& topology, const NetworkConfig& config,
                       const ProgramFactory& factory) {
  Network net(topology, config);
  return net.run(factory);
}

}  // namespace csd::congest
