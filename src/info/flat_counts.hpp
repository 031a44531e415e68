// Flat open-addressing count tables for the batched entropy estimators.
//
// The §5 measurement loop feeds millions of (symbol, weight) samples through
// JointDistribution::add; the per-sample cost of the original
// std::unordered_map backing (node allocation, pointer-chasing probes) was
// the dominant term. These tables are the replacement: power-of-two arrays
// of {key, count} slots, linear probing, no deletions, sized once per batch
// via reserve(). A slot is occupied iff its count is nonzero, which is sound
// because add() rejects zero weights.
//
// Determinism contract: iteration for entropy sums is NOT over table order
// (which depends on capacity and insertion history) but over sorted_items(),
// the canonical ascending-key order. Every consumer that folds doubles must
// use it so results are bit-identical regardless of backend, reserve hints,
// or insertion order — the property the batch-vs-sequential oracle checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd::info {

/// key -> summed weight. Occupied iff count != 0.
class FlatCounts {
 public:
  struct Item {
    std::uint64_t key;
    std::uint64_t count;
  };

  FlatCounts() : slots_(kMinCapacity) {}

  /// Size the table for `expected_distinct` keys (load factor <= 0.7) so a
  /// batch of adds never rehashes mid-stream. Never shrinks.
  void reserve(std::size_t expected_distinct) {
    std::size_t want = kMinCapacity;
    while (want * 7 < expected_distinct * 10) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  void add(std::uint64_t key, std::uint64_t weight) {
    CSD_CHECK_MSG(weight > 0, "FlatCounts::add: zero-weight sample");
    CSD_CHECK_MSG(
        weight <= std::numeric_limits<std::uint64_t>::max() - total_,
        "FlatCounts::add: total weight would wrap past 2^64");
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    Item& slot = probe(key);
    if (slot.count == 0) {
      slot.key = key;
      ++size_;
    }
    slot.count += weight;  // cannot wrap: count <= total_ and total_ checked
    total_ += weight;
  }

  std::uint64_t count(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t state = key;
    for (std::size_t i = splitmix64(state) & mask;; i = (i + 1) & mask) {
      const Item& slot = slots_[i];
      if (slot.count == 0) return 0;
      if (slot.key == key) return slot.count;
    }
  }

  std::uint64_t total() const noexcept { return total_; }
  std::size_t distinct() const noexcept { return size_; }

  /// Occupied slots in ascending key order — the canonical summation order.
  std::vector<Item> sorted_items() const {
    std::vector<Item> items;
    items.reserve(size_);
    for (const Item& slot : slots_)
      if (slot.count != 0) items.push_back(slot);
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.key < b.key; });
    return items;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  Item& probe(std::uint64_t key) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t state = key;
    for (std::size_t i = splitmix64(state) & mask;; i = (i + 1) & mask) {
      Item& slot = slots_[i];
      if (slot.count == 0 || slot.key == key) return slot;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Item> old = std::move(slots_);
    slots_.assign(capacity, Item{0, 0});
    for (const Item& slot : old) {
      if (slot.count == 0) continue;
      Item& fresh = probe(slot.key);
      fresh = slot;
    }
  }

  std::vector<Item> slots_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

/// (x, y) pair -> summed weight. Same contract as FlatCounts; pairs are
/// stored exactly (no hashing of the key itself), so there are no
/// collisions to bias the joint entropy.
class FlatPairCounts {
 public:
  struct Item {
    std::uint64_t x;
    std::uint64_t y;
    std::uint64_t count;
  };

  FlatPairCounts() : slots_(kMinCapacity) {}

  void reserve(std::size_t expected_distinct) {
    std::size_t want = kMinCapacity;
    while (want * 7 < expected_distinct * 10) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  void add(std::uint64_t x, std::uint64_t y, std::uint64_t weight) {
    CSD_CHECK_MSG(weight > 0, "FlatPairCounts::add: zero-weight sample");
    CSD_CHECK_MSG(
        weight <= std::numeric_limits<std::uint64_t>::max() - total_,
        "FlatPairCounts::add: total weight would wrap past 2^64");
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    Item& slot = probe(x, y);
    if (slot.count == 0) {
      slot.x = x;
      slot.y = y;
      ++size_;
    }
    slot.count += weight;
    total_ += weight;
  }

  std::uint64_t count(std::uint64_t x, std::uint64_t y) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(x, y) & mask;; i = (i + 1) & mask) {
      const Item& slot = slots_[i];
      if (slot.count == 0) return 0;
      if (slot.x == x && slot.y == y) return slot.count;
    }
  }

  std::uint64_t total() const noexcept { return total_; }
  std::size_t distinct() const noexcept { return size_; }

  /// Occupied slots sorted by (x, y) — the canonical summation order.
  std::vector<Item> sorted_items() const {
    std::vector<Item> items;
    items.reserve(size_);
    for (const Item& slot : slots_)
      if (slot.count != 0) items.push_back(slot);
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    return items;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t hash(std::uint64_t x, std::uint64_t y) noexcept {
    std::uint64_t state = splitmix64(x) + y;  // x is a copy
    return splitmix64(state);
  }

  Item& probe(std::uint64_t x, std::uint64_t y) noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(x, y) & mask;; i = (i + 1) & mask) {
      Item& slot = slots_[i];
      if (slot.count == 0 || (slot.x == x && slot.y == y)) return slot;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Item> old = std::move(slots_);
    slots_.assign(capacity, Item{0, 0, 0});
    for (const Item& slot : old) {
      if (slot.count == 0) continue;
      Item& fresh = probe(slot.x, slot.y);
      fresh = slot;
    }
  }

  std::vector<Item> slots_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

/// key -> dense position in insertion order (no counts). Used to index
/// conditional slices without a per-sample unordered_map lookup.
class FlatIndex {
 public:
  static constexpr std::uint32_t npos = 0xffffffffu;

  FlatIndex() : slots_(kMinCapacity) {}

  void reserve(std::size_t expected_distinct) {
    std::size_t want = kMinCapacity;
    while (want * 7 < expected_distinct * 10) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  /// Position of `key`, assigning the next dense position on first sight.
  std::uint32_t find_or_insert(std::uint64_t key) {
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    Slot& slot = probe(slots_, key);
    if (slot.pos_plus_one == 0) {
      CSD_CHECK_MSG(size_ < npos, "FlatIndex: too many distinct keys");
      slot.key = key;
      slot.pos_plus_one = static_cast<std::uint32_t>(++size_);
    }
    return slot.pos_plus_one - 1;
  }

  std::uint32_t find(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t state = key;
    for (std::size_t i = splitmix64(state) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.pos_plus_one == 0) return npos;
      if (slot.key == key) return slot.pos_plus_one - 1;
    }
  }

  std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key;
    std::uint32_t pos_plus_one;  // 0 = empty
  };

  static Slot& probe(std::vector<Slot>& slots, std::uint64_t key) noexcept {
    const std::size_t mask = slots.size() - 1;
    std::uint64_t state = key;
    for (std::size_t i = splitmix64(state) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots[i];
      if (slot.pos_plus_one == 0 || slot.key == key) return slot;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{0, 0});
    for (const Slot& slot : old) {
      if (slot.pos_plus_one == 0) continue;
      probe(slots_, slot.key) = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace csd::info
