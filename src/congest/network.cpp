#include "congest/network.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "congest/shard.hpp"
#include "support/check.hpp"

namespace csd::congest {

// Port mapping: port p of node v leads to neighbors(v)[p]; for delivery we
// need the reverse port on the receiving side. One counting-sort transpose
// of the CSR groups the directed edges by head (tails ascending). A dense
// per-vertex scratch then holds, for one vertex w at a time, the port by
// which each neighbor reaches w, and w's own row is filled in port order:
// every write to the 2m-entry tables is sequential, and the scattered
// reads hit n-entry arrays. O(n + sum deg) time with flat temporaries. The
// tables are flat arrays over the CSR's dense directed-edge index, so the
// delivery loop walks them linearly with no pointer chasing.
detail::EdgeTables detail::build_edge_tables(const GraphCsr& csr,
                                             const std::vector<NodeId>& ids) {
  const auto n = static_cast<Vertex>(ids.size());
  const auto m2 = static_cast<std::size_t>(csr.num_directed_edges());
  // in_begin[w] .. in_begin[w + 1]: the slots of the edges into w, each
  // holding the edge's tail and its port there. A symmetric CSR has as many
  // edges into each vertex as out of it.
  std::vector<std::uint64_t> in_begin(std::size_t{n} + 1, 0);
  for (const Vertex w : csr.neighbors) ++in_begin[std::size_t{w} + 1];
  for (Vertex w = 0; w < n; ++w) in_begin[w + 1] += in_begin[w];
  CSD_CHECK(in_begin == csr.offsets);
  std::vector<Vertex> in_tail(m2);
  std::vector<std::uint32_t> in_port(m2);
  {
    std::vector<std::uint64_t> next(in_begin.begin(), in_begin.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      const auto nbrs = csr.row(v);
      for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
        const std::uint64_t slot = next[nbrs[p]]++;
        in_tail[slot] = v;
        in_port[slot] = p;
      }
    }
  }
  // port_from[u] is u's port to vertex into[u]. A neighbor v of w whose
  // into[v] is not w has no edge back to w: the CSR is not symmetric.
  std::vector<std::uint32_t> port_from(n);
  std::vector<Vertex> into(n, kNoVertex);
  EdgeTables tables;
  tables.rev_port.resize(m2);
  tables.rev_edge.resize(m2);
  tables.neighbor_ids.resize(m2);
  for (Vertex w = 0; w < n; ++w) {
    for (std::uint64_t slot = in_begin[w]; slot < in_begin[w + 1]; ++slot) {
      port_from[in_tail[slot]] = in_port[slot];
      into[in_tail[slot]] = w;
    }
    for (std::uint64_t e = csr.offsets[w]; e < csr.offsets[w + 1]; ++e) {
      const Vertex v = csr.neighbors[e];
      CSD_CHECK(into[v] == w);
      tables.rev_port[e] = port_from[v];
      tables.rev_edge[e] = csr.offsets[v] + port_from[v];
      tables.neighbor_ids[e] = ids[v];
    }
  }
  return tables;
}

detail::EngineTopology detail::build_engine_topology(
    const Graph& topology, std::vector<NodeId> ids,
    std::uint64_t namespace_size) {
  CSD_CHECK_MSG(ids.size() == topology.num_vertices(),
                "identifier assignment size mismatch");
  if (namespace_size == 0) namespace_size = ids.size();
  for (const NodeId id : ids)
    CSD_CHECK_MSG(id < namespace_size,
                  "identifier " << id << " outside namespace ["
                                << namespace_size << ")");
  GraphCsr csr = topology.csr();
  EdgeTables tables = build_edge_tables(csr, ids);
  return {std::move(tables), std::move(csr), std::move(ids), namespace_size};
}

std::vector<NodeId> detail::index_ids(Vertex n) {
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  return ids;
}

Network::Network(const Graph& topology, NetworkConfig config)
    : Network(topology, std::move(config),
              detail::index_ids(topology.num_vertices())) {}

Network::Network(const Graph& topology, NetworkConfig config,
                 std::vector<NodeId> ids)
    : config_(std::move(config)),
      topology_(detail::build_engine_topology(topology, std::move(ids),
                                              config_.namespace_size)),
      partition_(Partition::build(topology_.csr,
                                  std::max(1u, config_.shard.workers),
                                  config_.shard.policy)) {}

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
  return run(factory, config_.seed);
}

RunOutcome Network::run(const ProgramFactory& factory, std::uint64_t seed,
                        const MessageObserver& observe) const {
  return detail::run_rounds(*this, factory, seed, observe);
}

RunOutcome run_congest(const Graph& topology, const NetworkConfig& config,
                       const ProgramFactory& factory) {
  Network net(topology, config);
  return net.run(factory);
}

}  // namespace csd::congest
