// Allocation guard for the synchronous round kernel: a run allocates per
// node, never per message. This binary replaces the global operator new to
// count the calls made while a flag is up, so it holds the count for its
// own tests only.
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

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
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

// K_32 at B = 32 for two rounds: 992 directed edges, so 1984 messages of at
// most 32 bits, each held inline by its BitVec. What a run still allocates
// is one NodeState and one program per node plus a fixed set of per-run
// tables, bounded here by 2n + 64.
TEST(Alloc, FaultFreeRunAllocatesPerNodeNotPerMessage) {
  const Graph g = build::complete(32);
  NetworkConfig config;
  config.bandwidth = 32;
  const Network net(g, config);
  const ProgramFactory factory = comm::random_traffic_program(2);

  g_allocations = 0;
  g_counting = true;
  const RunOutcome outcome = net.run(factory, 7);
  g_counting = false;

  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.messages, 1984u);
  EXPECT_LE(g_allocations, 2u * 32u + 64u);
}

}  // namespace
}  // namespace csd::congest
