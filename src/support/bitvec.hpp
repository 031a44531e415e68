// Dynamic bit vector.
//
// Used (a) as the payload representation for CONGEST messages, where cost is
// accounted in bits, and (b) as a dense set representation in the §4 fooling
// search and the detection-layer candidate checks, which intersect large ID
// sets. All bulk operations (append, splice, count, search, intersect) work
// on whole 64-bit words, never bit by bit.
//
// Storage rule: a BitVec is 32 bytes (the bit count, the heap capacity and
// a 16-byte union). Up to `kInlineBits` = 128 bits the words live inside the
// union and nothing touches the heap; past that they move to a heap buffer,
// which the vector then keeps (`clear()` and `truncate()` keep it, so a
// recycled buffer reuses its capacity) until it is destroyed or moved over.
// A CONGEST message of B = O(log n) bits is therefore allocation-free
// everywhere it travels. The layout holds no pointer into itself, so a
// move or `swap()` exchanges the 32 bytes whatever the storage; only growth
// past the capacity and the release of a heap buffer run out of line
// (bitvec.cpp).
//
// Invariant: bits past `size()` in the last used word are always zero
// (`trim()`), so `==`, `hash()`, `count()` and the word-parallel scans can
// operate on raw words without masking. Words past the last used one are
// never read.
//
// Equal-size contract: the set-algebra operations (`operator&=`,
// `operator|=`, `intersect_count`, `intersect_into`) require both operands
// to have exactly equal `size()` and CSD_CHECK it; mixing sizes is a logic
// error in the caller, not something to silently zero-extend.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "support/bits.hpp"
#include "support/check.hpp"

namespace csd {

class BitVec {
 public:
  /// Payloads of at most this many bits never allocate.
  static constexpr std::size_t kInlineBits = 128;

  BitVec() noexcept = default;

  /// A bit vector of `n` bits, all initialized to `value`.
  explicit BitVec(std::size_t n, bool value = false) {
    const std::size_t words = num_words(n);
    if (words > kInlineWords) reallocate(words);
    std::fill_n(data(), words, value ? ~0ULL : 0ULL);
    bits_ = n;
    trim();
  }

  BitVec(const BitVec& other) { assign(other); }

  BitVec(BitVec&& other) noexcept
      : bits_(other.bits_), cap_(other.cap_), store_(other.store_) {
    other.bits_ = 0;
    other.cap_ = 0;
  }

  BitVec& operator=(const BitVec& other) {
    assign(other);
    return *this;
  }

  BitVec& operator=(BitVec&& other) noexcept {
    if (this != &other) {
      if (cap_ != 0) release();
      bits_ = std::exchange(other.bits_, 0);
      cap_ = std::exchange(other.cap_, 0);
      store_ = other.store_;
    }
    return *this;
  }

  ~BitVec() {
    if (cap_ != 0) release();
  }

  /// Exchange contents and storage with `other`: four word swaps, no
  /// allocation, whether either side is inline or on the heap.
  void swap(BitVec& other) noexcept {
    std::swap(bits_, other.bits_);
    std::swap(cap_, other.cap_);
    std::swap(store_, other.store_);
  }
  friend void swap(BitVec& a, BitVec& b) noexcept { a.swap(b); }

  std::size_t size() const noexcept { return bits_; }
  bool empty() const noexcept { return bits_ == 0; }
  /// True when the words live in a heap buffer (more than kInlineBits of
  /// capacity), false while they sit inline.
  bool on_heap() const noexcept { return cap_ != 0; }

  bool get(std::size_t i) const noexcept {
    CSD_DCHECK(i < bits_);
    return (word(i >> 6) >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool v = true) noexcept {
    CSD_DCHECK(i < bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (v)
      word(i >> 6) |= mask;
    else
      word(i >> 6) &= ~mask;
  }

  void push_back(bool v) {
    if ((bits_ & 63) == 0) {
      reserve_words(num_words(bits_ + 1));
      word(bits_ >> 6) = 0;
    }
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
    const std::size_t wi = bits_ >> 6;
    reserve_words(num_words(bits_ + width));
    if (shift == 0) {
      word(wi) = value;
    } else {
      word(wi) |= value << shift;
      if (shift + width > 64) word(wi + 1) = value >> (64 - shift);
    }
    bits_ += width;
  }

  /// Read `width` bits starting at `pos`, least-significant bit first.
  std::uint64_t read_bits(std::size_t pos, unsigned width) const {
    CSD_CHECK(width <= 64 && pos + width <= bits_);
    if (width == 0) return 0;
    const std::size_t wi = pos >> 6;
    const unsigned off = static_cast<unsigned>(pos & 63);
    std::uint64_t v = word(wi) >> off;
    if (off + width > 64) v |= word(wi + 1) << (64 - off);
    if (width < 64) v &= (1ULL << width) - 1;
    return v;
  }

  /// Append another bit vector's contents (word-wise shift-or splice).
  /// `other` must not alias `*this`.
  void append(const BitVec& other) {
    CSD_CHECK(this != &other);
    if (other.bits_ == 0) return;
    const unsigned shift = bits_ & 63;
    const std::size_t first = bits_ >> 6;
    const std::size_t new_bits = bits_ + other.bits_;
    const std::size_t new_words = num_words(new_bits);
    reserve_words(new_words);
    std::uint64_t* w = data();
    const std::uint64_t* src = other.data();
    const std::size_t n = other.used_words();
    if (shift == 0) {
      std::copy_n(src, n, w + first);
    } else {
      const unsigned inv = 64 - shift;
      for (std::size_t i = 0; i < n; ++i) {
        w[first + i] |= src[i] << shift;
        // The spill word past new_words would hold no bits.
        if (first + i + 1 < new_words) w[first + i + 1] = src[i] >> inv;
      }
    }
    bits_ = new_bits;
  }

  /// Copy `other`'s contents into this vector, reusing its storage (no
  /// allocation when `other` fits inline or in this vector's heap buffer).
  void assign(const BitVec& other) {
    if (this == &other) return;
    const std::size_t n = other.used_words();
    if (n > capacity_words()) {
      bits_ = 0;  // nothing to carry over into the new buffer
      reallocate(n);
    }
    std::copy_n(other.data(), n, data());
    bits_ = other.bits_;
  }

  std::size_t count() const noexcept {
    std::size_t c = 0;
    for (const auto w : words()) c += static_cast<std::size_t>(popcount64(w));
    return c;
  }

  /// Drop every bit; a heap buffer is kept for reuse.
  void clear() noexcept { bits_ = 0; }

  /// Zero every bit in place, keeping size() and the storage.
  void reset() noexcept { std::fill_n(data(), used_words(), 0ULL); }

  /// Keep only the first `n` bits. No-op when `n >= size()`. Used by the
  /// engines to clamp over-bandwidth payloads instead of aborting the run.
  void truncate(std::size_t n) noexcept {
    if (n >= bits_) return;
    bits_ = n;
    trim();
  }

  /// Flip bit `i` in place (fault injection: payload corruption).
  void flip(std::size_t i) noexcept {
    CSD_DCHECK(i < bits_);
    word(i >> 6) ^= 1ULL << (i & 63);
  }

  /// In-place intersection; equal-size contract (see file comment).
  BitVec& operator&=(const BitVec& other) {
    CSD_CHECK(bits_ == other.bits_);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < used_words(); ++i) w[i] &= o[i];
    return *this;
  }

  /// In-place union; equal-size contract (see file comment).
  BitVec& operator|=(const BitVec& other) {
    CSD_CHECK(bits_ == other.bits_);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < used_words(); ++i) w[i] |= o[i];
    return *this;
  }

  bool operator==(const BitVec& other) const noexcept {
    return bits_ == other.bits_ &&
           std::equal(data(), data() + used_words(), other.data());
  }

  bool any() const noexcept {
    for (const auto w : words())
      if (w != 0) return true;
    return false;
  }

  /// Index of the first set bit at or after `from`; size() if none.
  /// Word-parallel: skips zero words, then counts trailing zeros.
  std::size_t find_next(std::size_t from) const noexcept {
    if (from >= bits_) return bits_;
    const std::uint64_t* words = data();
    const std::size_t used = used_words();
    std::size_t wi = from >> 6;
    std::uint64_t w = words[wi] & (~0ULL << (from & 63));
    while (w == 0) {
      if (++wi == used) return bits_;
      w = words[wi];
    }
    // trim() keeps the tail zeroed, so the hit is always a valid index.
    return (wi << 6) + static_cast<std::size_t>(countr_zero64(w));
  }

  /// The used words, ceil(size() / 64) of them, lowest bits first.
  std::span<const std::uint64_t> words() const noexcept {
    return {data(), used_words()};
  }

  /// Stable 64-bit content hash (FNV-1a over words + size).
  std::uint64_t hash() const noexcept {
    std::uint64_t h = 1469598103934665603ULL ^ bits_;
    for (const auto w : words()) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }

  friend std::size_t intersect_count(const BitVec& a, const BitVec& b);
  friend void intersect_into(BitVec& dst, const BitVec& a, const BitVec& b);

 private:
  static constexpr std::size_t kInlineWords = kInlineBits / 64;

  static constexpr std::size_t num_words(std::size_t bits) noexcept {
    return (bits + 63) / 64;
  }
  std::size_t used_words() const noexcept { return num_words(bits_); }
  std::size_t capacity_words() const noexcept {
    return cap_ != 0 ? cap_ : kInlineWords;
  }
  std::uint64_t* data() noexcept {
    return cap_ != 0 ? store_.heap : store_.words;
  }
  const std::uint64_t* data() const noexcept {
    return cap_ != 0 ? store_.heap : store_.words;
  }

  /// Storage word `wi`. Inline storage has kInlineWords words, so a larger
  /// index means heap storage; saying so keeps the compiler from following
  /// (and warning about) an inline path that no valid index can take.
  std::uint64_t& word(std::size_t wi) noexcept {
    return const_cast<std::uint64_t&>(std::as_const(*this).word(wi));
  }
  const std::uint64_t& word(std::size_t wi) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (cap_ == 0 && wi >= kInlineWords) __builtin_unreachable();
#endif
    return data()[wi];
  }

  /// Room for `words` words, growing geometrically; keeps the used words.
  void reserve_words(std::size_t words) {
    if (words > capacity_words())
      reallocate(std::max(words, 2 * capacity_words()));
  }

  /// Move the used words into a fresh heap buffer of `words` words. The
  /// fields are set here, in line, so the compiler sees the new storage.
  void reallocate(std::size_t words) {
    std::uint64_t* fresh = heap_copy(data(), used_words(), words);
    if (cap_ != 0) release();
    store_.heap = fresh;
    cap_ = words;
  }

  // Out of line (bitvec.cpp), so the inline paths stay small.
  /// A new heap buffer of `capacity` words holding the `used` words of
  /// `words`.
  static std::uint64_t* heap_copy(const std::uint64_t* words,
                                  std::size_t used, std::size_t capacity);
  /// Free the heap buffer (cap_ != 0); leaves the storage fields stale.
  void release() noexcept;

  void trim() noexcept {
    if (bits_ & 63) word(bits_ >> 6) &= (1ULL << (bits_ & 63)) - 1;
  }

  union Storage {
    std::uint64_t words[kInlineWords];
    std::uint64_t* heap;
  };

  std::size_t bits_ = 0;
  std::size_t cap_ = 0;  // heap capacity in words; 0 = inline storage
  Storage store_ = {{0, 0}};
};

static_assert(sizeof(BitVec) == 32, "BitVec stays 32 bytes");

/// |a ∩ b| without materializing the intersection; equal-size contract.
inline std::size_t intersect_count(const BitVec& a, const BitVec& b) {
  CSD_CHECK(a.bits_ == b.bits_);
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  std::size_t c = 0;
  for (std::size_t w = 0; w < a.used_words(); ++w)
    c += static_cast<std::size_t>(popcount64(pa[w] & pb[w]));
  return c;
}

/// dst = a ∩ b in one pass; equal-size contract on `a` and `b`. `dst` is
/// resized to match and may alias either operand (an aliasing `dst` already
/// has room, so it never reallocates).
inline void intersect_into(BitVec& dst, const BitVec& a, const BitVec& b) {
  CSD_CHECK(a.bits_ == b.bits_);
  const std::size_t n = a.used_words();
  if (n > dst.capacity_words()) {
    dst.bits_ = 0;
    dst.reallocate(n);
  }
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  std::uint64_t* pd = dst.data();
  for (std::size_t w = 0; w < n; ++w) pd[w] = pa[w] & pb[w];
  dst.bits_ = a.bits_;
}

/// Invoke `fn(index)` for every set bit in ascending order, iterating whole
/// 64-bit words (the Korhonen–Rybicki broadcast-CONGEST idiom: candidate
/// sets are walked word-at-a-time, not bit-at-a-time).
template <typename Fn>
inline void for_each_set(const BitVec& v, Fn&& fn) {
  const auto words = v.words();
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
