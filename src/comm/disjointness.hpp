// Two-party set disjointness — the source problem of the §3 reduction.
//
// Alice holds X ⊆ [U], Bob holds Y ⊆ [U]; they must decide X ∩ Y = ∅.
// By [Kalyanasundaram–Schnitger '92, Razborov '92] this costs Ω(U) bits even
// for randomized protocols. We do not re-prove that bound; instances built
// here feed the executable reduction of Theorem 1.2, whose *cost side*
// (bits per simulated round across the cut) we measure.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace csd::comm {

/// A disjointness instance over universe {0, ..., universe-1}, with sets
/// stored as sorted element lists.
struct DisjointnessInstance {
  std::uint64_t universe = 0;
  std::vector<std::uint64_t> x;
  std::vector<std::uint64_t> y;

  /// True iff X ∩ Y != ∅.
  bool intersects() const;

  /// Elements of X ∩ Y (sorted).
  std::vector<std::uint64_t> intersection() const;
};

/// Random instance: each element joins X (resp. Y) iid with density; then if
/// `force_intersecting`, one common element is planted, otherwise any
/// intersection is removed (from Y).
DisjointnessInstance random_disjointness(std::uint64_t universe,
                                         double density,
                                         bool force_intersecting, Rng& rng);

/// Interpret a pair index (i, j) in [n]×[n] as a universe element of [n²].
constexpr std::uint64_t pair_to_element(std::uint64_t i, std::uint64_t j,
                                        std::uint64_t n) noexcept {
  return i * n + j;
}

constexpr std::pair<std::uint64_t, std::uint64_t> element_to_pair(
    std::uint64_t e, std::uint64_t n) noexcept {
  return {e / n, e % n};
}

}  // namespace csd::comm
