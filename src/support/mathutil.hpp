// Integer math helpers shared across the library: powers, roots, logs, and
// the Turán-number bounds that parameterize the §6 algorithm.
#pragma once

#include <cstdint>

namespace csd {

/// base^exp with saturation at UINT64_MAX.
std::uint64_t ipow(std::uint64_t base, std::uint32_t exp) noexcept;

/// ⌈n^{1/k}⌉ — smallest r with r^k >= n. Requires k >= 1.
std::uint64_t ceil_kth_root(std::uint64_t n, std::uint32_t k) noexcept;

/// ⌊n^{1/k}⌋ — largest r with r^k <= n. Requires k >= 1.
std::uint64_t floor_kth_root(std::uint64_t n, std::uint32_t k) noexcept;

/// ⌈log2(n)⌉ for n >= 1 (returns 0 for n == 1).
std::uint32_t ceil_log2(std::uint64_t n) noexcept;

/// a + b with saturation at UINT64_MAX.
constexpr std::uint64_t saturating_add(std::uint64_t a,
                                       std::uint64_t b) noexcept {
  return a > ~b ? ~0ULL : a + b;
}

/// a · b with saturation at UINT64_MAX.
constexpr std::uint64_t saturating_mul(std::uint64_t a,
                                       std::uint64_t b) noexcept {
  return b != 0 && a > ~0ULL / b ? ~0ULL : a * b;
}

/// ⌈a / b⌉ for b > 0.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// ⌈c · n^{1+1/k}⌉: the Turán-style edge bound M used by the C_2k detector
/// (ex(n, C_2k) = O(n^{1+1/k}), Bondy–Simonovits / Bukh–Jiang). `c_num/c_den`
/// is the leading constant as a rational, so results are deterministic.
std::uint64_t even_cycle_edge_bound(std::uint64_t n, std::uint32_t k,
                                    std::uint64_t c_num = 1,
                                    std::uint64_t c_den = 1) noexcept;

/// n^{p/q} rounded up, computed exactly in integers: ⌈(n^p)^{1/q}⌉.
std::uint64_t ceil_pow_ratio(std::uint64_t n, std::uint32_t p,
                             std::uint32_t q) noexcept;

}  // namespace csd
