#include "congest/partition.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace csd::congest {

Partition Partition::build(const GraphCsr& csr, std::uint32_t workers,
                           PartitionPolicy) {
  CSD_CHECK_MSG(workers >= 1, "Partition::build needs at least one worker");
  const Vertex n = csr.num_vertices();
  const std::uint64_t total = csr.num_directed_edges() + n;
  Partition part;
  part.first_.assign(std::size_t{workers} + 1, n);
  part.first_[0] = 0;
  for (std::uint32_t w = 1; w < workers; ++w) {
    // Binary search from the previous boundary; v = n always qualifies, as
    // offsets[n] + n = total.
    Vertex lo = part.first_[w - 1];
    Vertex hi = n;
    while (lo < hi) {
      const Vertex mid = lo + (hi - lo) / 2;
      if ((csr.offsets[mid] + mid) * workers <
          static_cast<std::uint64_t>(w) * total)
        lo = mid + 1;
      else
        hi = mid;
    }
    part.first_[w] = lo;
  }
  part.owned_edges_.resize(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    const Vertex lo = part.first_[w];
    const Vertex hi = part.first_[w + 1];
    part.owned_edges_[w] = csr.offsets[hi] - csr.offsets[lo];
    if (workers == 1) break;  // one range: no edge is cut, no pass
    for (Vertex v = lo; v < hi; ++v)
      for (const Vertex u : csr.row(v))
        if (u < lo || u >= hi) ++part.cut_edges_;
  }
  return part;
}

std::uint32_t Partition::owner(Vertex v) const noexcept {
  return static_cast<std::uint32_t>(
      std::upper_bound(first_.begin(), first_.end(), v) - first_.begin() - 1);
}

}  // namespace csd::congest
