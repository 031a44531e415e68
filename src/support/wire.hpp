// Prefix-free bit-level serialization.
//
// CONGEST message cost is accounted in *bits*, so algorithm payloads are
// encoded with explicit widths rather than bytes. All encodings here are
// self-delimiting when the reader knows the schema (fixed widths) or via
// varints (unary-length-prefixed), which is exactly the prefix-code property
// that the §4 transcript argument requires.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/bitvec.hpp"
#include "support/check.hpp"

namespace csd::wire {

/// Number of bits needed to represent values in [0, n), minimum 1.
constexpr unsigned bits_for(std::uint64_t n) noexcept {
  unsigned b = 1;
  while (b < 64 && (1ULL << b) < n) ++b;
  return b;
}

/// Bit-level writer over an owned BitVec.
class Writer {
 public:
  Writer() = default;

  /// Start from a recycled buffer (e.g. congest::NodeApi::scratch()): the
  /// contents are cleared but a heap buffer is reused, which saves the
  /// allocation of a message above BitVec::kInlineBits bits (smaller ones
  /// never allocate).
  explicit Writer(BitVec scratch) : bits_(std::move(scratch)) {
    bits_.clear();
  }

  /// Fixed-width unsigned field.
  void u(std::uint64_t value, unsigned width) {
    CSD_CHECK_MSG(width == 64 || value < (1ULL << width),
                  "value " << value << " does not fit in " << width << " bits");
    bits_.append_bits(value, width);
  }

  void boolean(bool v) { bits_.push_back(v); }

  /// Variable-width unsigned field: unary length prefix in 7-bit groups
  /// (classic varint lifted to the bit level; prefix-free).
  void varint(std::uint64_t value) {
    do {
      const std::uint64_t group = value & 0x7f;
      value >>= 7;
      bits_.push_back(value != 0);  // continuation bit
      bits_.append_bits(group, 7);
    } while (value != 0);
  }

  /// Raw bit run copied verbatim.
  void raw(const BitVec& v) { bits_.append(v); }

  std::size_t bit_size() const noexcept { return bits_.size(); }
  const BitVec& bits() const noexcept { return bits_; }
  BitVec take() && { return std::move(bits_); }

 private:
  BitVec bits_;
};

/// Bit-level reader; throws CheckFailure on truncated input.
class Reader {
 public:
  explicit Reader(const BitVec& bits) : bits_(bits) {}

  std::uint64_t u(unsigned width) {
    CSD_CHECK_MSG(pos_ + width <= bits_.size(), "wire read past end");
    const std::uint64_t v = bits_.read_bits(pos_, width);
    pos_ += width;
    return v;
  }

  bool boolean() { return u(1) != 0; }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    bool more = true;
    while (more) {
      CSD_CHECK_MSG(pos_ + 8 <= bits_.size(), "wire read past end (varint)");
      more = bits_.get(pos_);
      const std::uint64_t group = bits_.read_bits(pos_ + 1, 7);
      pos_ += 8;
      // The group at shift 63 has room for one bit: a wider one would lose
      // its high bits, so a damaged payload could decode to a valid value.
      CSD_CHECK_MSG(shift < 63 || (shift == 63 && group <= 1),
                    "varint overflow");
      v |= group << shift;
      shift += 7;
    }
    return v;
  }

  BitVec raw(std::size_t nbits) {
    CSD_CHECK_MSG(pos_ + nbits <= bits_.size(), "wire read past end (raw)");
    BitVec out;
    for (std::size_t done = 0; done < nbits; done += 64) {
      const auto width =
          static_cast<unsigned>(std::min<std::size_t>(64, nbits - done));
      out.append_bits(bits_.read_bits(pos_ + done, width), width);
    }
    pos_ += nbits;
    return out;
  }

  std::size_t remaining() const noexcept { return bits_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == bits_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  const BitVec& bits_;
  std::size_t pos_ = 0;
};

}  // namespace csd::wire
