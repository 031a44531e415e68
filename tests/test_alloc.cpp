// Allocation guard for the synchronous round kernel: a run allocates per
// node, never per message, and a Network's later runs reuse the workspace
// (frame arenas, node records, crash and wake arrays) its first run built,
// so what they allocate per node is the program alone. This binary
// replaces the global operator new to count the calls made while a flag is
// up, and the largest size asked for, so it holds the counts for its own
// tests only.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "comm/cut_simulator.hpp"
#include "congest/network.hpp"
#include "graph/builders.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;
std::size_t g_largest = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
    if (size > g_largest) g_largest = size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace csd::congest {
namespace {

/// The allocations of one run of `factory` on `net` at `seed`, and the
/// largest of them.
struct Counted {
  RunOutcome outcome;
  std::uint64_t allocations = 0;
  std::size_t largest = 0;
};

Counted count_run(const Network& net, const ProgramFactory& factory,
                  std::uint64_t seed) {
  g_allocations = 0;
  g_largest = 0;
  g_counting = true;
  RunOutcome outcome = net.run(factory, seed);
  g_counting = false;
  return {std::move(outcome), g_allocations, g_largest};
}

// K_32 at B = 32 for two rounds: 992 directed edges, so 1984 messages of at
// most 32 bits, each held inline by its BitVec. What the first run on a
// Network allocates is one program per node, its workspace (two frame
// arenas, the node records, the crash and wake arrays, the programs
// vector) and a fixed set of per-run tables (the outcome's vectors, the
// worker context and view), bounded here by n + 64. A second run reuses
// the workspace: n + 40, and no allocation as large as an arena's payload
// array.
TEST(Alloc, FaultFreeRunAllocatesPerNodeNotPerMessage) {
  const Graph g = build::complete(32);
  NetworkConfig config;
  config.bandwidth = 32;
  const Network net(g, config);
  const ProgramFactory factory = comm::random_traffic_program(2);
  const std::uint64_t n = g.num_vertices();

  const Counted first = count_run(net, factory, 7);
  ASSERT_TRUE(first.outcome.completed);
  EXPECT_EQ(first.outcome.metrics.messages, 1984u);
  EXPECT_LE(first.allocations, n + 64u);

  const Counted second = count_run(net, factory, 8);
  ASSERT_TRUE(second.outcome.completed);
  EXPECT_EQ(second.outcome.metrics.messages, 1984u);
  EXPECT_LE(second.allocations, n + 40u);
  const std::size_t arena_payloads = 2 * g.num_edges() * sizeof(BitVec);
  EXPECT_LT(second.largest, arena_payloads);
}

}  // namespace
}  // namespace csd::congest
