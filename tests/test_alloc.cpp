// Allocation guard for the synchronous round kernel: a run allocates per
// node, never per message, and a Network's later runs reuse the workspace
// (frame arenas, node records, crash and wake arrays) its first run built,
// so what they allocate per node is the program alone; at W = 2 workers a
// payload's heap buffer stays with the worker that sent it. It also guards
// what a detector's program allocates: per-node state that allocates only
// for what the node stores in it. This binary replaces the global operator
// new to count the calls made while a flag is up, their bytes and the
// largest size asked for, so it holds the counts for its own tests only.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "comm/cut_simulator.hpp"
#include "congest/network.hpp"
#include "detect/even_cycle.hpp"
#include "detect/id_set.hpp"
#include "graph/builders.hpp"
#include "support/rng.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;
std::uint64_t g_bytes = 0;
std::size_t g_largest = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += size;
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
// Network allocates is one program per node, its workspace (two send
// arenas, the inbox presence bytes, the node records, the crash and wake
// arrays, the programs vector) and a fixed set of per-run tables (the
// outcome's vectors, the worker context and view), bounded here by n + 40.
// A second run reuses the workspace: n + 24, and no allocation as large as
// an arena's payload array.
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
  EXPECT_LE(first.allocations, n + 40u);

  const Counted second = count_run(net, factory, 8);
  ASSERT_TRUE(second.outcome.completed);
  EXPECT_EQ(second.outcome.metrics.messages, 1984u);
  EXPECT_LE(second.allocations, n + 24u);
  const std::size_t arena_payloads = 2 * g.num_edges() * sizeof(BitVec);
  EXPECT_LT(second.largest, arena_payloads);
}

/// Sends a 200-bit payload built from scratch() on every port in each of
/// its first `rounds` rounds, then halts.
class HeapTrafficProgram final : public NodeProgram {
 public:
  explicit HeapTrafficProgram(std::uint64_t rounds) : rounds_(rounds) {}

  void on_round(NodeApi& api) override {
    if (api.round() >= rounds_) {
      api.halt();
      return;
    }
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      BitVec payload = api.scratch();
      for (int w = 0; w < 3; ++w) payload.append_bits(api.rng()(), 64);
      payload.append_bits(api.rng()(), 8);
      api.send(p, std::move(payload));
    }
  }

 private:
  std::uint64_t rounds_;
};

// K_16 at bandwidth 0 for six rounds: 1440 messages of 200 bits, each in a
// heap buffer that a send displaces into scratch(). A message stays in the
// slot it was sent into at every worker count, so a buffer stays with the
// worker whose node sent it, and a later run at W = 2 allocates what one
// at W = 1 does plus a fixed set of tables per worker (its thread, context
// and view, the channels and its pool's first buffers).
TEST(Alloc, ShardedRunKeepsHeapPayloadsWithTheirWorker) {
  const Graph g = build::complete(16);
  const ProgramFactory factory = [](std::uint32_t) {
    return std::make_unique<HeapTrafficProgram>(6);
  };
  std::uint64_t later[2] = {0, 0};
  for (const std::uint32_t workers : {1u, 2u}) {
    NetworkConfig config;
    config.bandwidth = 0;
    config.shard.workers = workers;
    const Network net(g, config);
    ASSERT_TRUE(count_run(net, factory, 3).outcome.completed);
    const Counted run = count_run(net, factory, 4);
    ASSERT_TRUE(run.outcome.completed);
    EXPECT_EQ(run.outcome.metrics.messages, 6u * 240u);
    later[workers - 1] = run.allocations;
  }
  // 56 and 76 here; a W = 2 run that shipped payloads between workers
  // through its channels made 207 to 218.
  const std::uint64_t per_worker = 16;
  EXPECT_LE(later[1], later[0] + 2 * per_worker);
}

// The C_4 detector on the bench's HOTPATH tree (512 nodes, Rng(23)): a later
// run on the Network allocates its programs and what each node stores in
// them. A node that holds no token allocates its program, its copy of the
// schedule and one byte per port of neighbour flags; its token queues and
// id sets allocate only when a token arrives, and an id set holding a few
// ids is a short list.
TEST(Alloc, EvenCycleRunAllocatesWhatItsNodesHold) {
  Rng rng(23);
  const Graph g = build::random_tree(512, rng);
  detect::EvenCycleConfig cfg;
  cfg.k = 2;
  cfg.c_num = 1;
  NetworkConfig config;
  config.bandwidth = 64;
  config.max_rounds =
      detect::make_even_cycle_schedule(g.num_vertices(), cfg).total_rounds() +
      1;
  const Network net(g, config);
  const ProgramFactory factory = detect::even_cycle_program(cfg);
  const std::uint64_t n = g.num_vertices();

  ASSERT_TRUE(count_run(net, factory, 19).outcome.completed);
  const Counted later = count_run(net, factory, 20);
  ASSERT_TRUE(later.outcome.completed);
  EXPECT_FALSE(later.outcome.detected);
  EXPECT_LE(later.allocations, 4 * n);
}

// A set holding a few ids over the largest namespace that promotes to a
// dense bitset allocates for those ids, not the 16 KiB bitset.
TEST(Alloc, IdSetHoldingThreeIdsAllocatesUnderOneKiB) {
  g_allocations = 0;
  g_bytes = 0;
  g_counting = true;
  {
    detect::IdSet set;
    set.init(detect::IdSet::kDenseLimit);
    EXPECT_TRUE(set.insert(5));
    EXPECT_TRUE(set.insert(detect::IdSet::kDenseLimit - 1));
    EXPECT_TRUE(set.insert(70000));
    EXPECT_FALSE(set.insert(5));
    EXPECT_TRUE(set.contains(70000));
  }
  g_counting = false;
  EXPECT_GT(g_allocations, 0u);
  EXPECT_LT(g_bytes, 1024u);
}

}  // namespace
}  // namespace csd::congest
