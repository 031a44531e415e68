// BitVec's heap transitions, kept out of line so the inline-storage paths
// (every payload of at most BitVec::kInlineBits bits) stay small.
#include "support/bitvec.hpp"

namespace csd {

std::uint64_t* BitVec::heap_copy(const std::uint64_t* words, std::size_t used,
                                 std::size_t capacity) {
  auto* fresh = new std::uint64_t[capacity];
  std::copy_n(words, used, fresh);
  return fresh;
}

void BitVec::release() noexcept { delete[] store_.heap; }

}  // namespace csd
