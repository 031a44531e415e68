// Core undirected simple-graph type.
//
// Vertices are dense indices 0..n-1 ("who is where in the topology");
// CONGEST-layer *identifiers* are assigned separately by congest::Network,
// since several lower bounds (§4, §5) quantify over adversarial or random
// identifier assignments for a fixed topology.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd {

using Vertex = std::uint32_t;
constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// Structure-of-arrays adjacency (compressed sparse row), as Graph::csr()
/// builds it.
///
/// The neighbors of `v` are `neighbors[offsets[v] .. offsets[v+1])`, in
/// exactly the adjacency-list order — so position `p` in a row is the same
/// port number the CONGEST layer assigns, and `offsets[v] + p` is a dense
/// index over directed edges that engines use for flat per-edge tables.
struct GraphCsr {
  std::vector<std::uint64_t> offsets;  // n + 1 entries
  std::vector<Vertex> neighbors;       // 2m entries

  Vertex num_vertices() const noexcept {
    return offsets.empty() ? 0 : static_cast<Vertex>(offsets.size() - 1);
  }
  std::uint64_t num_directed_edges() const noexcept {
    return offsets.empty() ? 0 : offsets.back();
  }
  std::uint32_t degree(Vertex v) const noexcept {
    return static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
  }
  std::span<const Vertex> row(Vertex v) const noexcept {
    return {neighbors.data() + offsets[v], degree(v)};
  }
};

/// Undirected simple graph with O(1) amortized edge insertion, O(1) expected
/// adjacency queries, and cache-friendly neighbor iteration.
class Graph {
 public:
  Graph() = default;
  explicit Graph(Vertex n) : adj_(n) {}

  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(adj_.size());
  }
  std::uint64_t num_edges() const noexcept { return edge_set_.size(); }

  /// Append `count` fresh isolated vertices; returns the first new index.
  Vertex add_vertices(Vertex count) {
    const auto first = num_vertices();
    adj_.resize(adj_.size() + count);
    return first;
  }

  Vertex add_vertex() { return add_vertices(1); }

  /// Insert undirected edge {u, v}. Self-loops and duplicates are rejected.
  void add_edge(Vertex u, Vertex v) {
    CSD_CHECK_MSG(u < num_vertices() && v < num_vertices(),
                  "edge endpoint out of range: {" << u << "," << v << "}");
    CSD_CHECK_MSG(u != v, "self-loop rejected at vertex " << u);
    CSD_CHECK_MSG(edge_set_.insert(edge_key(u, v)),
                  "duplicate edge {" << u << "," << v << "}");
    adj_[u].push_back(v);
    adj_[v].push_back(u);
  }

  /// Insert {u, v} unless it already exists; returns true if inserted.
  bool add_edge_if_absent(Vertex u, Vertex v) {
    if (u == v || has_edge(u, v)) return false;
    add_edge(u, v);
    return true;
  }

  bool has_edge(Vertex u, Vertex v) const noexcept {
    if (u >= num_vertices() || v >= num_vertices() || u == v) return false;
    return edge_set_.contains(edge_key(u, v));
  }

  std::span<const Vertex> neighbors(Vertex v) const noexcept {
    CSD_DCHECK(v < num_vertices());
    return adj_[v];
  }

  Vertex degree(Vertex v) const noexcept {
    CSD_DCHECK(v < num_vertices());
    return static_cast<Vertex>(adj_[v].size());
  }

  Vertex max_degree() const noexcept {
    Vertex d = 0;
    for (Vertex v = 0; v < num_vertices(); ++v) d = std::max(d, degree(v));
    return d;
  }

  /// All edges as (u, v) with u < v, in insertion-independent sorted order.
  std::vector<std::pair<Vertex, Vertex>> edges() const;

  /// Subgraph induced on `keep` (indices remapped densely, in `keep` order).
  /// `keep` must contain distinct valid vertices.
  Graph induced_subgraph(const std::vector<Vertex>& keep) const;

  /// Disjoint union: appends `other`, returning the offset added to its
  /// vertex indices.
  Vertex append_disjoint(const Graph& other);

  /// Sort all adjacency lists (stable iteration order for deterministic
  /// algorithms); call after bulk construction.
  void sort_adjacency();

  /// The current adjacency as a CSR, built anew by each call (O(n + m)).
  /// Engines build it once and own it (congest::detail::EngineTopology).
  GraphCsr csr() const;

 private:
  static std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
    const std::uint64_t a = std::min(u, v), b = std::max(u, v);
    return (a << 32) | b;
  }

  /// Open-addressing set of packed edge keys: linear probing over a
  /// power-of-two table kept at most half full, so inserting, querying and
  /// copying allocate nothing per edge. ~0 marks an empty slot; no key
  /// equals it, since a key packs min < max.
  class EdgeSet {
   public:
    std::uint64_t size() const noexcept { return size_; }

    bool contains(std::uint64_t key) const noexcept {
      return !slots_.empty() && slots_[slot_of(key)] == key;
    }

    /// Insert `key`; false (and no change) if it is already present.
    bool insert(std::uint64_t key) {
      if (2 * (size_ + 1) > slots_.size()) grow();
      const std::size_t i = slot_of(key);
      if (slots_[i] == key) return false;
      slots_[i] = key;
      ++size_;
      return true;
    }

   private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /// The slot holding `key`, or the empty slot where it belongs.
    std::size_t slot_of(std::uint64_t key) const noexcept {
      const std::size_t mask = slots_.size() - 1;
      std::uint64_t state = key;
      std::size_t i = static_cast<std::size_t>(splitmix64(state)) & mask;
      while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
      return i;
    }
    void grow();

    std::vector<std::uint64_t> slots_;
    std::uint64_t size_ = 0;
  };

  std::vector<std::vector<Vertex>> adj_;
  EdgeSet edge_set_;
};

}  // namespace csd
