// Bit-level CRC-32 (IEEE 802.3, reflected).
//
// CONGEST payloads are bit strings, not byte strings, so the checksum is
// defined bit by bit over the exact payload length. The reliable-transport
// layer (congest/transport.*) appends this CRC to every data packet; a CRC
// mismatch marks the packet as corrupted and it is treated like a loss
// (discard + retransmit). CRC-32 detects every single-bit error, which is
// exactly the fault model of FaultPlan::corrupt (one flipped payload bit
// per corrupted frame).
//
// The reflected state machine does not care where a field starts, so eight
// bit steps can always be taken as one byte-table step: `bits` consumes a
// field a byte at a time and its last `width mod 8` bits singly, and `raw`
// feeds a BitVec's 64-bit words through `bits`. Every checksum equals the
// bit-serial definition for any mix of widths.
#pragma once

#include <array>
#include <cstdint>

#include "support/bitvec.hpp"

namespace csd {

/// CRC-32 running state. Feed bits (LSB-first within each logical field,
/// matching the wire::Writer bit order), then read `value()`.
class Crc32 {
 public:
  void bit(bool b) noexcept {
    const std::uint32_t in = static_cast<std::uint32_t>(b);
    const std::uint32_t mix = (state_ ^ in) & 1u;
    state_ >>= 1;
    if (mix) state_ ^= kPolynomial;
  }

  /// The low `width` (<= 64) bits of `value`, LSB first.
  void bits(std::uint64_t value, unsigned width) noexcept {
    for (; width >= 8; width -= 8, value >>= 8)
      state_ = kByteTable[static_cast<std::uint8_t>(
                   state_ ^ static_cast<std::uint32_t>(value))] ^
               (state_ >> 8);
    for (unsigned i = 0; i < width; ++i) bit((value >> i) & 1ULL);
  }

  void raw(const BitVec& v) noexcept {
    const auto words = v.words();
    const std::size_t full = v.size() / 64;
    for (std::size_t w = 0; w < full; ++w) bits(words[w], 64);
    if (const auto rest = static_cast<unsigned>(v.size() % 64); rest != 0)
      bits(words[full], rest);
  }

  std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  static constexpr std::uint32_t kPolynomial = 0xedb88320u;
  /// kByteTable[i]: eight zero-input bit steps from state i.
  static constexpr std::array<std::uint32_t, 256> kByteTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t state = i;
      for (int step = 0; step < 8; ++step)
        state = (state >> 1) ^ ((state & 1u) != 0 ? kPolynomial : 0u);
      table[i] = state;
    }
    return table;
  }();
  std::uint32_t state_ = 0xffffffffu;
};

/// CRC-32 of a whole bit vector (bits in index order).
inline std::uint32_t crc32_bits(const BitVec& v) noexcept {
  Crc32 crc;
  crc.raw(v);
  return crc.value();
}

}  // namespace csd
