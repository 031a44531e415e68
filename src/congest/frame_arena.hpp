// Arena-allocated frame plane, structure-of-arrays layout.
//
// A run works on two flat arenas — outboxes and inboxes — over the directed
// edges of the topology, indexed by the CSR dense edge index
// `csr.offsets[v] + port`. Payload buffers and presence flags live in
// *separate* flat arrays: the per-round scans (reset presence, find present
// outbox slots) walk a dense byte array instead of striding over 32-byte
// slots, and a round's delivery *swaps* the payload buffer of a present
// outbox slot into the reverse-edge inbox slot — no per-message copy. A
// payload of at most BitVec::kInlineBits bits lives inside its slot, so the
// swap exchanges its words; a larger one's heap buffer circulates between
// the two arenas for as long as the arenas live.
//
// Presence is the only truth: a payload whose presence byte is 0 is
// unobservable, so resets clear presence bytes and deliberately leave stale
// payload bits in place (they are overwritten by the next swap-in). This is
// what makes `reset_presence()` a memset instead of an O(E) walk that
// touches every BitVec, and what lets a later run reuse the arenas of an
// earlier one: a reset arena is indistinguishable from a fresh one.
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

/// Flat payload + presence arrays over `directed_edges` dense edge slots.
class FrameArena {
 public:
  FrameArena() = default;

  explicit FrameArena(std::uint64_t directed_edges)
      : payloads_(static_cast<std::size_t>(directed_edges)),
        present_(static_cast<std::size_t>(directed_edges), 0) {}

  /// Payload / presence byte of the row that starts at dense edge `first`
  /// (a node's `csr.offsets[v]`); ports index from it contiguously. `first`
  /// may equal size() (the empty row of a trailing degree-0 node).
  BitVec* payload_row(std::uint64_t first) noexcept {
    return payloads_.data() + first;
  }
  std::uint8_t* present_row(std::uint64_t first) noexcept {
    return present_.data() + first;
  }

  BitVec& payload(std::uint64_t e) noexcept { return payloads_[e]; }
  std::uint8_t& present(std::uint64_t e) noexcept { return present_[e]; }
  std::size_t size() const noexcept { return payloads_.size(); }

  /// Mark every slot absent. One memset over E bytes; payload buffers keep
  /// both their heap storage and their (now unobservable) contents.
  void reset_presence() noexcept {
    if (!present_.empty())
      std::memset(present_.data(), 0, present_.size());
  }

  /// Mark the `count` slots of the row at `first` absent.
  void clear_row(std::uint64_t first, std::uint32_t count) noexcept {
    if (count > 0) std::memset(present_row(first), 0, count);
  }

 private:
  std::vector<BitVec> payloads_;
  std::vector<std::uint8_t> present_;
};

}  // namespace csd::congest::detail
