// Dynamic bit vector.
//
// Used (a) as the payload representation for CONGEST messages, where cost is
// accounted in bits, and (b) as a dense set representation in the §4 fooling
// search and the detection-layer candidate checks, which intersect large ID
// sets. All bulk operations (append, splice, count, search, intersect) work
// on whole 64-bit words, never bit by bit.
//
// Invariant: bits past `size()` in the last storage word are always zero
// (`trim()`), so `==`, `hash()`, `count()` and the word-parallel scans can
// operate on raw words without masking.
//
// Equal-size contract: the set-algebra operations (`operator&=`,
// `operator|=`, `intersect_count`, `intersect_into`) require both operands
// to have exactly equal `size()` and CSD_CHECK it; mixing sizes is a logic
// error in the caller, not something to silently zero-extend.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bits.hpp"
#include "support/check.hpp"

namespace csd {

class BitVec {
 public:
  BitVec() = default;

  /// A bit vector of `n` bits, all initialized to `value`.
  explicit BitVec(std::size_t n, bool value = false)
      : bits_(n), words_((n + 63) / 64, value ? ~0ULL : 0ULL) {
    trim();
  }

  std::size_t size() const noexcept { return bits_; }
  bool empty() const noexcept { return bits_ == 0; }

  bool get(std::size_t i) const noexcept {
    CSD_DCHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool v = true) noexcept {
    CSD_DCHECK(i < bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  void push_back(bool v) {
    if ((bits_ & 63) == 0) words_.push_back(0);
    ++bits_;
    set(bits_ - 1, v);
  }

  /// Append the low `width` bits of `value`, least-significant bit first.
  /// Splices into at most two storage words.
  void append_bits(std::uint64_t value, unsigned width) {
    CSD_CHECK(width <= 64);
    if (width == 0) return;
    if (width < 64) value &= (1ULL << width) - 1;
    const unsigned shift = bits_ & 63;
    if (shift == 0) {
      words_.push_back(value);
    } else {
      words_.back() |= value << shift;
      if (shift + width > 64) words_.push_back(value >> (64 - shift));
    }
    bits_ += width;
  }

  /// Read `width` bits starting at `pos`, least-significant bit first.
  std::uint64_t read_bits(std::size_t pos, unsigned width) const {
    CSD_CHECK(width <= 64 && pos + width <= bits_);
    if (width == 0) return 0;
    const std::size_t wi = pos >> 6;
    const unsigned off = static_cast<unsigned>(pos & 63);
    std::uint64_t v = words_[wi] >> off;
    if (off + width > 64) v |= words_[wi + 1] << (64 - off);
    if (width < 64) v &= (1ULL << width) - 1;
    return v;
  }

  /// Append another bit vector's contents (word-wise shift-or splice).
  /// `other` must not alias `*this`.
  void append(const BitVec& other) {
    CSD_CHECK(this != &other);
    if (other.bits_ == 0) return;
    const unsigned shift = bits_ & 63;
    const std::size_t new_bits = bits_ + other.bits_;
    const std::size_t new_words = (new_bits + 63) / 64;
    words_.reserve(new_words);
    if (shift == 0) {
      words_.insert(words_.end(), other.words_.begin(), other.words_.end());
    } else {
      const unsigned inv = 64 - shift;
      for (const std::uint64_t w : other.words_) {
        words_.back() |= w << shift;
        words_.push_back(w >> inv);
      }
      words_.resize(new_words);  // drop the spill word when it holds no bits
    }
    bits_ = new_bits;
  }

  /// Copy `other`'s contents into this vector, reusing retained capacity
  /// (no allocation when this vector has held a payload at least as large).
  void assign(const BitVec& other) {
    bits_ = other.bits_;
    words_.assign(other.words_.begin(), other.words_.end());
  }

  std::size_t count() const noexcept {
    std::size_t c = 0;
    for (const auto w : words_) c += static_cast<std::size_t>(popcount64(w));
    return c;
  }

  void clear() noexcept {
    bits_ = 0;
    words_.clear();
  }

  /// Zero every bit in place, keeping size() and the storage.
  void reset() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Keep only the first `n` bits. No-op when `n >= size()`. Used by the
  /// engines to clamp over-bandwidth payloads instead of aborting the run.
  void truncate(std::size_t n) noexcept {
    if (n >= bits_) return;
    bits_ = n;
    words_.resize((n + 63) / 64);
    trim();
  }

  /// Flip bit `i` in place (fault injection: payload corruption).
  void flip(std::size_t i) noexcept {
    CSD_DCHECK(i < bits_);
    words_[i >> 6] ^= 1ULL << (i & 63);
  }

  /// In-place intersection; equal-size contract (see file comment).
  BitVec& operator&=(const BitVec& other) {
    CSD_CHECK(bits_ == other.bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
    return *this;
  }

  /// In-place union; equal-size contract (see file comment).
  BitVec& operator|=(const BitVec& other) {
    CSD_CHECK(bits_ == other.bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
    return *this;
  }

  bool operator==(const BitVec& other) const noexcept {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  bool any() const noexcept {
    for (const auto w : words_)
      if (w != 0) return true;
    return false;
  }

  /// Index of the first set bit at or after `from`; size() if none.
  /// Word-parallel: skips zero words, then counts trailing zeros.
  std::size_t find_next(std::size_t from) const noexcept {
    if (from >= bits_) return bits_;
    std::size_t wi = from >> 6;
    std::uint64_t w = words_[wi] & (~0ULL << (from & 63));
    while (w == 0) {
      if (++wi == words_.size()) return bits_;
      w = words_[wi];
    }
    // trim() keeps the tail zeroed, so the hit is always a valid index.
    return (wi << 6) + static_cast<std::size_t>(countr_zero64(w));
  }

  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Stable 64-bit content hash (FNV-1a over words + size).
  std::uint64_t hash() const noexcept {
    std::uint64_t h = 1469598103934665603ULL ^ bits_;
    for (const auto w : words_) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }

  friend std::size_t intersect_count(const BitVec& a, const BitVec& b);
  friend void intersect_into(BitVec& dst, const BitVec& a, const BitVec& b);

 private:
  void trim() noexcept {
    if (bits_ & 63) {
      const std::uint64_t mask = (1ULL << (bits_ & 63)) - 1;
      if (!words_.empty()) words_.back() &= mask;
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// |a ∩ b| without materializing the intersection; equal-size contract.
inline std::size_t intersect_count(const BitVec& a, const BitVec& b) {
  CSD_CHECK(a.bits_ == b.bits_);
  std::size_t c = 0;
  for (std::size_t w = 0; w < a.words_.size(); ++w)
    c += static_cast<std::size_t>(popcount64(a.words_[w] & b.words_[w]));
  return c;
}

/// dst = a ∩ b in one pass; equal-size contract on `a` and `b`. `dst` is
/// resized to match and may alias either operand.
inline void intersect_into(BitVec& dst, const BitVec& a, const BitVec& b) {
  CSD_CHECK(a.bits_ == b.bits_);
  dst.bits_ = a.bits_;
  dst.words_.resize(a.words_.size());
  for (std::size_t w = 0; w < a.words_.size(); ++w)
    dst.words_[w] = a.words_[w] & b.words_[w];
}

/// Invoke `fn(index)` for every set bit in ascending order, iterating whole
/// 64-bit words (the Korhonen–Rybicki broadcast-CONGEST idiom: candidate
/// sets are walked word-at-a-time, not bit-at-a-time).
template <typename Fn>
inline void for_each_set(const BitVec& v, Fn&& fn) {
  const auto& words = v.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(countr_zero64(w));
      fn((wi << 6) + bit);
      w &= w - 1;
    }
  }
}

}  // namespace csd
