#include "congest/partition.hpp"

#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::congest {

std::string_view to_string(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::Range:
      return "range";
    case PartitionPolicy::Hash:
      return "hash";
  }
  return "?";
}

bool parse_partition_policy(std::string_view text, PartitionPolicy& out) {
  if (text == "range") {
    out = PartitionPolicy::Range;
    return true;
  }
  if (text == "hash") {
    out = PartitionPolicy::Hash;
    return true;
  }
  return false;
}

Partition Partition::build(const GraphCsr& csr, std::uint32_t workers,
                           PartitionPolicy policy) {
  CSD_CHECK_MSG(workers >= 1, "Partition::build needs at least one worker");
  const Vertex n = csr.num_vertices();
  Partition part;
  part.workers_ = workers;
  part.owner_.resize(n);
  part.owned_.assign(workers, {});
  part.owned_edges_.assign(workers, 0);

  if (policy == PartitionPolicy::Hash) {
    // SIKeyHash-style stateless assignment: a fixed splitmix64 mix of the
    // vertex index mod W. The constant is arbitrary but frozen — changing
    // it would re-shuffle every hash partition.
    for (Vertex v = 0; v < n; ++v)
      part.owner_[v] =
          static_cast<std::uint32_t>(derive_seed(0x5AA2Dull, v) % workers);
  } else {
    // Contiguous ranges balanced by directed-edge count. Each vertex
    // weighs degree + 1 (the +1 keeps isolated vertices from piling onto
    // one worker); worker w takes vertices until the cumulative weight
    // reaches its share of the total.
    const std::uint64_t total = csr.num_directed_edges() + n;
    std::uint64_t acc = 0;
    std::uint32_t w = 0;
    for (Vertex v = 0; v < n; ++v) {
      while (w + 1 < workers &&
             acc * workers >= static_cast<std::uint64_t>(w + 1) * total)
        ++w;
      part.owner_[v] = w;
      acc += csr.degree(v) + 1;
    }
  }

  for (Vertex v = 0; v < n; ++v) {
    const std::uint32_t w = part.owner_[v];
    part.owned_[w].push_back(v);
    part.owned_edges_[w] += csr.degree(v);
    for (const Vertex u : csr.row(v))
      if (part.owner_[u] != w) ++part.cut_edges_;
  }
  return part;
}

}  // namespace csd::congest
