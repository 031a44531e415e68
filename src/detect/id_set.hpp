// Membership set over a bounded integer id namespace.
//
// The detection programs deduplicate node-id tokens against per-node sets
// whose universe is the id namespace of the run. On the hosts the detectors
// run on, almost every such set stays empty or receives a few ids, so a set
// starts as a sorted list of at most `kListCap` = 16 ids: it allocates on
// its first insert and only for the ids it holds (a set holding one id
// over a 2^17-id namespace takes 8 bytes, where a dense bitset takes
// 16 KiB). The 17th id moves the set to the representation a large set
// wants: a dense bit-vector (one word per 64 ids) when the universe is at
// most `kDenseLimit`, whose intersection is word-parallel, and a
// std::unordered_set past that, so the programs stay correct at any scale.
// Every operation means the same for every pair of representations, and
// clear() returns the set to an empty list.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <variant>
#include <vector>

#include "support/bitvec.hpp"
#include "support/check.hpp"

namespace csd::detect {

class IdSet {
 public:
  /// Universe sizes up to this promote to the dense representation (16 KiB
  /// of bits); larger ones to a hash set.
  static constexpr std::uint64_t kDenseLimit = 1ULL << 17;
  /// Ids a set keeps as a sorted list; the next distinct id promotes it.
  static constexpr std::size_t kListCap = 16;

  IdSet() = default;

  /// Fix the id universe [0, universe) and empty the set. Must be called
  /// before any insert. Allocates nothing.
  void init(std::uint64_t universe) {
    universe_ = universe;
    clear();
  }

  /// Insert `id`; returns true iff it was not already present.
  bool insert(std::uint64_t id) {
    CSD_DCHECK(id < universe_);
    if (auto* list = std::get_if<List>(&rep_)) {
      const auto at = std::lower_bound(list->begin(), list->end(), id);
      if (at != list->end() && *at == id) return false;
      if (list->size() < kListCap) {
        list->insert(at, id);
        return true;
      }
      promote();
    }
    if (auto* dense = std::get_if<BitVec>(&rep_)) {
      const auto i = static_cast<std::size_t>(id);
      if (dense->get(i)) return false;
      dense->set(i);
      return true;
    }
    return std::get<Hash>(rep_).insert(id).second;
  }

  bool contains(std::uint64_t id) const {
    if (const auto* list = std::get_if<List>(&rep_))
      return std::binary_search(list->begin(), list->end(), id);
    if (const auto* dense = std::get_if<BitVec>(&rep_))
      return id < dense->size() && dense->get(static_cast<std::size_t>(id));
    return std::get<Hash>(rep_).count(id) != 0;
  }

  std::size_t size() const {
    if (const auto* list = std::get_if<List>(&rep_)) return list->size();
    if (const auto* dense = std::get_if<BitVec>(&rep_)) return dense->count();
    return std::get<Hash>(rep_).size();
  }

  /// Remove every id and free the storage: the set is an empty list again.
  void clear() { rep_ = List(); }

  /// True iff the two sets share an element. Word-parallel when both sides
  /// are dense over the same universe; otherwise each id of the smaller
  /// side is looked up in the other.
  friend bool intersects(const IdSet& a, const IdSet& b) {
    const auto* dense_a = std::get_if<BitVec>(&a.rep_);
    const auto* dense_b = std::get_if<BitVec>(&b.rep_);
    if (dense_a != nullptr && dense_b != nullptr &&
        dense_a->size() == dense_b->size())
      return intersect_count(*dense_a, *dense_b) > 0;
    const IdSet& probe = a.size() <= b.size() ? a : b;
    const IdSet& other = (&probe == &a) ? b : a;
    return probe.any_of([&](std::uint64_t id) { return other.contains(id); });
  }

 private:
  using List = std::vector<std::uint64_t>;  // sorted, at most kListCap ids
  using Hash = std::unordered_set<std::uint64_t>;

  /// Move a full list to the dense bitset or the hash set.
  void promote() {
    const List list = std::move(std::get<List>(rep_));
    if (universe_ <= kDenseLimit) {
      BitVec dense(static_cast<std::size_t>(universe_));
      for (const auto id : list) dense.set(static_cast<std::size_t>(id));
      rep_ = std::move(dense);
    } else {
      rep_ = Hash(list.begin(), list.end());
    }
  }

  /// True iff `pred` holds for some id of the set.
  template <typename Pred>
  bool any_of(Pred pred) const {
    if (const auto* list = std::get_if<List>(&rep_))
      return std::any_of(list->begin(), list->end(), pred);
    if (const auto* dense = std::get_if<BitVec>(&rep_)) {
      for (std::size_t i = dense->find_next(0); i < dense->size();
           i = dense->find_next(i + 1))
        if (pred(i)) return true;
      return false;
    }
    const Hash& hash = std::get<Hash>(rep_);
    return std::any_of(hash.begin(), hash.end(), pred);
  }

  std::uint64_t universe_ = 0;
  std::variant<List, BitVec, Hash> rep_;
};

}  // namespace csd::detect
