// The async engine's event queue: a calendar queue over virtual-time ticks.
//
// It pops EventRecords in (time, seq) order — exactly the order of a binary
// heap on that key — at O(1) per event, without moving records around. It
// relies on two facts the engine's push sites guarantee:
//   * no event is scheduled before the time of the last pop (CHECKed: a
//     wrapped virtual time or a damaged snapshot must not reorder the run);
//   * events for one tick are pushed in ascending seq order (seq is the
//     engine's push counter; restore pushes a snapshot's sorted list).
//
// Events less than `ring_ticks()` ahead of the clock sit in per-tick FIFO
// buckets of slab indices. Later ones (backed-off timers, far rejoins,
// restored events) wait in a small (time, seq, slot) key heap and move into
// their bucket, in key order, the moment the clock brings their tick into
// the ring — before any direct push can reach that tick, so every bucket
// stays in seq order. Records live in a slab with a free list; pop() moves
// one out.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "congest/snapshot.hpp"
#include "support/check.hpp"

namespace csd::congest::detail {

class EventQueue {
 public:
  /// Largest ring; events further ahead wait in the key heap.
  static constexpr std::uint64_t kMaxRingTicks = 4096;

  /// The ring spans at least `horizon` ticks past the clock (rounded up to
  /// a power of two, capped at kMaxRingTicks).
  explicit EventQueue(std::uint64_t horizon)
      : ring_(std::bit_ceil(std::min(horizon, kMaxRingTicks - 1) + 1)),
        mask_(ring_.size() - 1) {}

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::uint64_t ring_ticks() const noexcept { return ring_.size(); }

  void push(EventRecord&& event) {
    CSD_CHECK_MSG(event.time >= now_,
                  "event at virtual time "
                      << event.time << " scheduled before the clock (" << now_
                      << "): a virtual time wrapped, or restored state "
                         "disagrees with the event list");
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(event));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(event);
    }
    const EventRecord& e = slab_[slot];
    if (e.time - now_ < ring_.size()) {
      Bucket& bucket = ring_[e.time & mask_];
      CSD_DCHECK(bucket.slots.size() == bucket.head ||
                 slab_[bucket.slots.back()].seq < e.seq);
      bucket.slots.push_back(slot);
      ++in_ring_;
    } else {
      far_.push_back({e.time, e.seq, slot});
      std::push_heap(far_.begin(), far_.end(), KeyLater{});
    }
    ++size_;
  }

  /// Time of the earliest event; moves the clock up to it. Requires
  /// !empty().
  std::uint64_t next_time() {
    CSD_DCHECK(!empty());
    if (in_ring_ == 0) advance_to(far_.front().time);
    while (ring_[now_ & mask_].head == ring_[now_ & mask_].slots.size())
      advance_to(now_ + 1);
    return now_;
  }

  /// Remove and return the earliest event. Requires !empty().
  EventRecord pop() {
    Bucket& bucket = ring_[next_time() & mask_];
    const std::uint32_t slot = bucket.slots[bucket.head++];
    if (bucket.head == bucket.slots.size()) {
      bucket.slots.clear();
      bucket.head = 0;
    }
    --in_ring_;
    --size_;
    free_.push_back(slot);
    return std::move(slab_[slot]);
  }

  /// Every queued event, in pop order (checkpoint capture).
  std::vector<EventRecord> sorted() const {
    std::vector<EventRecord> events;
    events.reserve(size_);
    for (std::uint64_t tick = now_; tick - now_ < ring_.size(); ++tick) {
      const Bucket& bucket = ring_[tick & mask_];
      for (std::size_t i = bucket.head; i < bucket.slots.size(); ++i)
        events.push_back(slab_[bucket.slots[i]]);
    }
    std::vector<Key> far = far_;
    std::sort(far.begin(), far.end(),
              [](const Key& a, const Key& b) { return KeyLater{}(b, a); });
    for (const Key& key : far) events.push_back(slab_[key.slot]);
    return events;
  }

 private:
  struct Key {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  /// One tick's events in seq order; slots before `head` are popped.
  struct Bucket {
    std::vector<std::uint32_t> slots;
    std::size_t head = 0;
  };

  /// Move the clock to `tick` (no queued event is earlier) and pull the
  /// heap's events that now fall inside the ring into their buckets.
  void advance_to(std::uint64_t tick) {
    now_ = tick;
    while (!far_.empty() && far_.front().time - now_ < ring_.size()) {
      std::pop_heap(far_.begin(), far_.end(), KeyLater{});
      const Key key = far_.back();
      far_.pop_back();
      ring_[key.time & mask_].slots.push_back(key.slot);
      ++in_ring_;
    }
  }

  std::vector<Bucket> ring_;
  std::uint64_t mask_;
  std::uint64_t now_ = 0;
  std::vector<Key> far_;  // min-heap on (time, seq)
  std::vector<EventRecord> slab_;
  std::vector<std::uint32_t> free_;
  std::size_t in_ring_ = 0;
  std::size_t size_ = 0;
};

}  // namespace csd::congest::detail
