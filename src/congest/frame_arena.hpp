// Arena-allocated frame plane, structure-of-arrays layout.
//
// A message lives in one slot from the moment it is sent until the round
// after, when its receiver reads it: slot `csr.offsets[v] + port` of a send
// arena, indexed by the CSR dense edge index. Payload buffers and presence
// flags live in *separate* flat arrays, so the per-round scans (reset
// presence, find present send slots) walk a dense byte array instead of
// striding over 32-byte slots. Delivery moves no payload: landing the
// message on edge e sets one byte of the receivers' Presence plane, at the
// reverse edge `rev_edge[e]` (the receiver's own row), and the receiver
// reads the payload through that same reverse edge in the sender's slot.
// A synchronous run alternates two send arenas by executed round, so round
// r's sends never overwrite the round r - 1 messages its programs read; the
// async engine sends into and reads from one (node_state.hpp). A payload of
// at most BitVec::kInlineBits bits lives inside its slot; a larger one's
// heap buffer stays with the slot until a later send displaces it.
//
// Presence is the only truth: a payload whose presence byte is 0 is
// unobservable, so resets clear presence bytes and deliberately leave stale
// payload bits in place (they are overwritten by the next send). This is
// what makes a reset a memset instead of an O(E) walk that touches every
// BitVec, and what lets a later run reuse the arenas of an earlier one: a
// reset arena is indistinguishable from a fresh one.
//
// Ownership: the arenas live in a run workspace (node_state.hpp), which a
// Network hands from run to run. An arena knows only its size, never the
// topology: callers address a node's row by the dense index of its first
// edge (`csr.offsets[v]`), so a workspace stays valid when its Network is
// moved.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/bitvec.hpp"

namespace csd::congest::detail {

/// One presence byte per dense edge slot (1 = the slot holds a message).
class Presence {
 public:
  Presence() = default;

  explicit Presence(std::uint64_t slots)
      : bytes_(static_cast<std::size_t>(slots), 0) {}

  /// The bytes of the row that starts at dense edge `first` (a node's
  /// `csr.offsets[v]`); ports index from it contiguously. `first` may equal
  /// size() (the empty row of a trailing degree-0 node).
  std::uint8_t* row(std::uint64_t first) noexcept {
    return bytes_.data() + first;
  }

  std::uint8_t& operator[](std::uint64_t e) noexcept { return bytes_[e]; }
  std::size_t size() const noexcept { return bytes_.size(); }

  /// Mark every slot absent: one memset over E bytes.
  void reset() noexcept {
    if (!bytes_.empty()) std::memset(bytes_.data(), 0, bytes_.size());
  }

  /// Mark the `count` slots from dense edge `first` on absent: a node's
  /// row, or a worker's contiguous run of rows.
  void clear_row(std::uint64_t first, std::uint64_t count) noexcept {
    if (count > 0) std::memset(row(first), 0, count);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Flat payload + presence arrays over `directed_edges` dense edge slots:
/// the messages senders put in this arena, present until the scan takes
/// them.
class FrameArena {
 public:
  FrameArena() = default;

  explicit FrameArena(std::uint64_t directed_edges)
      : payloads_(static_cast<std::size_t>(directed_edges)),
        present_(directed_edges) {}

  /// Payload / presence byte of the row that starts at dense edge `first`
  /// (see Presence::row).
  BitVec* payload_row(std::uint64_t first) noexcept {
    return payloads_.data() + first;
  }
  std::uint8_t* present_row(std::uint64_t first) noexcept {
    return present_.row(first);
  }

  BitVec& payload(std::uint64_t e) noexcept { return payloads_[e]; }
  std::uint8_t& present(std::uint64_t e) noexcept { return present_[e]; }
  std::size_t size() const noexcept { return payloads_.size(); }

  /// Mark every slot absent. Payload buffers keep both their heap storage
  /// and their (now unobservable) contents.
  void reset_presence() noexcept { present_.reset(); }

  /// Mark the `count` slots of the row at `first` absent.
  void clear_row(std::uint64_t first, std::uint32_t count) noexcept {
    present_.clear_row(first, count);
  }

 private:
  std::vector<BitVec> payloads_;
  Presence present_;
};

}  // namespace csd::congest::detail
