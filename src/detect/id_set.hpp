// Membership set over a bounded integer id namespace.
//
// The detection programs deduplicate node-id tokens against sets whose
// universe is the id namespace of the run. For the instance sizes the
// simulator targets, a dense bit-vector (one word per 64 ids) beats a hash
// set on both speed and memory, and its intersection is word-parallel; for
// very large namespaces the helper falls back to std::unordered_set so the
// programs stay correct at any scale.
//
// The dense bitset is allocated on the first insert, not by init: most of a
// detector's per-node sets never receive an id (four sets per node of a
// C_2k run over an 8192-id namespace would otherwise allocate 32 MiB per
// repetition), and an unallocated set reads as empty everywhere.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "support/bitvec.hpp"
#include "support/check.hpp"

namespace csd::detect {

class IdSet {
 public:
  /// Universe sizes up to this use the dense representation (16 KiB of bits).
  static constexpr std::uint64_t kDenseLimit = 1ULL << 17;

  IdSet() = default;

  /// Fix the id universe [0, universe). Must be called before any insert.
  /// Allocates nothing (and drops a previous universe's bitset).
  void init(std::uint64_t universe) {
    universe_ = universe;
    dense_mode_ = universe > 0 && universe <= kDenseLimit;
    dense_ = BitVec();
  }

  /// Insert `id`; returns true iff it was not already present.
  bool insert(std::uint64_t id) {
    if (dense_mode_) {
      CSD_DCHECK(id < universe_);
      if (dense_.empty()) dense_ = BitVec(static_cast<std::size_t>(universe_));
      const auto i = static_cast<std::size_t>(id);
      if (dense_.get(i)) return false;
      dense_.set(i);
      return true;
    }
    return sparse_.insert(id).second;
  }

  bool contains(std::uint64_t id) const {
    // An unallocated bitset has size 0, so this also reads it as empty.
    if (dense_mode_)
      return id < dense_.size() && dense_.get(static_cast<std::size_t>(id));
    return sparse_.count(id) != 0;
  }

  /// Remove every id; the dense bitset (if allocated) is zeroed in place.
  void clear() {
    if (dense_mode_)
      dense_.reset();
    else
      sparse_.clear();
  }

  /// True iff the two sets share an element. Word-parallel when both sides
  /// are dense over the same universe.
  friend bool intersects(const IdSet& a, const IdSet& b) {
    if (a.dense_mode_ && b.dense_mode_ && a.universe_ == b.universe_) {
      // An unallocated side is empty, and BitVec intersections require
      // operands of equal size.
      if (a.dense_.empty() || b.dense_.empty()) return false;
      return intersect_count(a.dense_, b.dense_) > 0;
    }
    const IdSet& probe = a.size_hint() <= b.size_hint() ? a : b;
    const IdSet& other = (&probe == &a) ? b : a;
    if (probe.dense_mode_) {
      for (std::size_t i = probe.dense_.find_next(0); i < probe.dense_.size();
           i = probe.dense_.find_next(i + 1))
        if (other.contains(i)) return true;
      return false;
    }
    for (const auto id : probe.sparse_)
      if (other.contains(id)) return true;
    return false;
  }

 private:
  std::size_t size_hint() const {
    return dense_mode_ ? dense_.count() : sparse_.size();
  }

  std::uint64_t universe_ = 0;
  bool dense_mode_ = false;
  BitVec dense_;
  std::unordered_set<std::uint64_t> sparse_;
};

}  // namespace csd::detect
