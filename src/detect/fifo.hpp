// First-in first-out queue for a detector node's pipelined tokens.
//
// Every node of a pipelined detector owns a token queue, and on the hosts
// the detectors run on most of those queues stay empty for the whole run.
// A std::deque allocates a block and its map even when empty (libstdc++:
// 512 bytes plus 64), so n nodes would pay for n queues whatever they held.
// This queue is a vector and the index of the next item to pop: it
// allocates on its first push and keeps its storage within a constant
// factor of its peak length. When the last item is popped the vector is
// emptied (capacity kept), and once the popped prefix is longer than the
// items still queued the live items move to the front, each move paid for
// by an earlier pop.
#pragma once

#include <cstddef>
#include <vector>

#include "support/check.hpp"

namespace csd::detect {

template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }
  /// Items the storage holds room for (what the storage bound is about).
  std::size_t capacity() const noexcept { return items_.capacity(); }

  void push_back(const T& item) { items_.push_back(item); }

  const T& front() const {
    CSD_DCHECK(!empty());
    return items_[head_];
  }

  void pop_front() {
    CSD_DCHECK(!empty());
    ++head_;
    if (head_ == items_.size()) {
      clear();
    } else if (2 * head_ > items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Drop every queued item; the storage is kept for the next push.
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // index of the front item
};

}  // namespace csd::detect
