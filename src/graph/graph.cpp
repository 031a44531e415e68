#include "graph/graph.hpp"

#include <algorithm>

namespace csd {

std::vector<std::pair<Vertex, Vertex>> Graph::edges() const {
  std::vector<std::pair<Vertex, Vertex>> out;
  out.reserve(num_edges());
  for (Vertex u = 0; u < num_vertices(); ++u)
    for (const Vertex v : adj_[u])
      if (u < v) out.emplace_back(u, v);
  std::sort(out.begin(), out.end());
  return out;
}

Graph Graph::induced_subgraph(const std::vector<Vertex>& keep) const {
  std::vector<Vertex> remap(num_vertices(), kNoVertex);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    CSD_CHECK_MSG(keep[i] < num_vertices(), "induced_subgraph: bad vertex");
    CSD_CHECK_MSG(remap[keep[i]] == kNoVertex,
                  "induced_subgraph: duplicate vertex " << keep[i]);
    remap[keep[i]] = static_cast<Vertex>(i);
  }
  Graph sub(static_cast<Vertex>(keep.size()));
  for (const Vertex u : keep)
    for (const Vertex v : adj_[u])
      if (remap[v] != kNoVertex && remap[u] < remap[v])
        sub.add_edge(remap[u], remap[v]);
  return sub;
}

Vertex Graph::append_disjoint(const Graph& other) {
  const Vertex offset = add_vertices(other.num_vertices());
  for (Vertex u = 0; u < other.num_vertices(); ++u)
    for (const Vertex v : other.adj_[u])
      if (u < v) add_edge(offset + u, offset + v);
  return offset;
}

void Graph::EdgeSet::grow() {
  const std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(16, 2 * old.size()), kEmpty);
  for (const std::uint64_t key : old)
    if (key != kEmpty) slots_[slot_of(key)] = key;
}

void Graph::sort_adjacency() {
  for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());
}

GraphCsr Graph::csr() const {
  GraphCsr csr;
  csr.offsets.reserve(adj_.size() + 1);
  csr.offsets.push_back(0);
  csr.neighbors.reserve(2 * num_edges());
  for (const auto& nbrs : adj_) {
    csr.neighbors.insert(csr.neighbors.end(), nbrs.begin(), nbrs.end());
    csr.offsets.push_back(csr.neighbors.size());
  }
  return csr;
}

}  // namespace csd
