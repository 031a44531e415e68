#include "support/combinatorics.hpp"

#include <limits>

namespace csd {

namespace {
constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();
__extension__ typedef unsigned __int128 Wide;
}  // namespace

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  Wide result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    // Prefix products C(n-k+i, i) are integers, so divide-after-multiply is
    // exact; 128-bit intermediate avoids overflow, with saturation at 2^64-1.
    result = result * (n - k + i) / i;
    if (result > kSat) return kSat;
  }
  return static_cast<std::uint64_t>(result);
}

std::vector<std::uint32_t> unrank_k_subset(std::uint64_t rank, std::uint32_t m,
                                           std::uint32_t k) {
  CSD_CHECK_MSG(k <= m, "k-subset of [m] requires k <= m");
  CSD_CHECK_MSG(rank < binomial(m, k), "rank out of range");
  // Colexicographic unranking: choose the largest element first. The element
  // at position remaining - 1 is the largest c with C(c, remaining) <= r; it
  // lies in [remaining - 1, hi], hi one below the element chosen before it
  // (r < C(hi + 1, remaining) holds throughout). C(c, remaining) never
  // decreases in c, saturation included, so binary search finds it with
  // O(log m) binomials instead of a scan over [m].
  std::vector<std::uint32_t> out(k);
  std::uint64_t r = rank;
  std::uint32_t hi = m - 1;
  for (std::uint32_t remaining = k; remaining > 0; --remaining) {
    std::uint32_t lo = remaining - 1;  // C(lo, remaining) = 0 <= r
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo + 1) / 2;
      if (binomial(mid, remaining) <= r)
        lo = mid;
      else
        hi = mid - 1;
    }
    out[remaining - 1] = lo;
    r -= binomial(lo, remaining);
    hi = lo - 1;
  }
  return out;
}

std::uint64_t rank_k_subset(const std::vector<std::uint32_t>& subset,
                            std::uint32_t m) {
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    CSD_CHECK_MSG(subset[i] < m, "subset element out of range");
    if (i > 0) CSD_CHECK_MSG(subset[i] > subset[i - 1], "subset not increasing");
    r += binomial(subset[i], static_cast<std::uint64_t>(i) + 1);
  }
  return r;
}

}  // namespace csd
