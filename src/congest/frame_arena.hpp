// Arena-allocated frame plane, structure-of-arrays layout.
//
// One run allocates two flat arenas — outboxes and inboxes — over the
// directed edges of the topology, indexed by the CSR dense edge index
// `csr.offsets[v] + port`. Payload buffers and presence flags live in
// *separate* flat arrays: the per-round scans (reset presence, find present
// outbox slots) walk a dense byte array instead of striding over 40-byte
// slots, and a round's delivery *swaps* the payload buffer of a present
// outbox slot into the reverse-edge inbox slot — no per-message copy. A
// payload of at most BitVec::kInlineBits bits lives inside its slot, so the
// swap exchanges its words; a larger one's heap buffer circulates between
// the two arenas for the run's lifetime.
//
// Presence is the only truth: a payload whose presence byte is 0 is
// unobservable, so resets clear presence bytes and deliberately leave stale
// payload bits in place (they are overwritten by the next swap-in). This is
// what makes `reset_presence()` a memset instead of an O(E) walk that
// touches every BitVec.
//
// Ownership: the engine owns both arenas for the duration of a run;
// NodeState instances hold raw row pointers into them (attach_frames) and
// must not outlive the arenas.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/graph.hpp"
#include "support/bitvec.hpp"

namespace csd::congest::detail {

/// Flat payload + presence arrays over the directed edges of a topology,
/// rows addressed via its CSR offsets. The CSR must outlive the arena.
class FrameArena {
 public:
  FrameArena() = default;

  explicit FrameArena(const GraphCsr& csr)
      : offsets_(&csr.offsets),
        payloads_(static_cast<std::size_t>(csr.num_directed_edges())),
        present_(static_cast<std::size_t>(csr.num_directed_edges()), 0) {}

  /// First payload / presence byte of `v`'s row; ports index from it
  /// contiguously.
  BitVec* payload_row(Vertex v) noexcept {
    return payloads_.data() + (*offsets_)[v];
  }
  std::uint8_t* present_row(Vertex v) noexcept {
    return present_.data() + (*offsets_)[v];
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

 private:
  const std::vector<std::uint64_t>* offsets_ = nullptr;
  std::vector<BitVec> payloads_;
  std::vector<std::uint8_t> present_;
};

}  // namespace csd::congest::detail
