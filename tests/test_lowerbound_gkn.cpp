// Tests for the Theorem 1.2 constructions: H_k (Figure 1) and the family
// G_{k,n} (Definition 2 / Figure 2), including machine checks of Property 1
// and Lemma 3.1 (the latter cross-validated against the VF2 oracle at small
// sizes).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "comm/disjointness.hpp"
#include "graph/algorithms.hpp"
#include "graph/oracle.hpp"
#include "graph/vf2.hpp"
#include "lowerbound/gkn.hpp"
#include "lowerbound/hk.hpp"
#include "support/crc.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace csd::lb {
namespace {

// ------------------------------------------------------------------- H_k --
TEST(Hk, SizeIsLinearInK) {
  for (const std::uint32_t k : {1u, 2u, 5u, 20u}) {
    const auto hk = build_hk(k);
    EXPECT_EQ(hk.graph.num_vertices(), 44 + 6 * k);
    EXPECT_EQ(hk.graph.num_vertices(), hk.layout.num_vertices());
  }
}

TEST(Hk, DiameterIsThree) {
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    const auto hk = build_hk(k);
    EXPECT_EQ(diameter(hk.graph), 3u) << "k=" << k;
  }
}

TEST(Hk, ContainsExactlyTheFiveMarkerCliqueSizes) {
  const auto hk = build_hk(2);
  // A K_10 exists (clique 10) but no K_11.
  EXPECT_TRUE(oracle::has_clique(hk.graph, 10));
  EXPECT_FALSE(oracle::has_clique(hk.graph, 11));
}

TEST(Hk, EndpointDegreesAreAsConstructed) {
  const std::uint32_t k = 3;
  const auto hk = build_hk(k);
  for (const Side s : {Side::Top, Side::Bottom})
    for (const Corner d : {Corner::A, Corner::B}) {
      // k triangle corners + 1 marker + 1 top-bottom partner.
      EXPECT_EQ(hk.graph.degree(hk.layout.endpoint(s, d)), k + 2);
    }
}

TEST(Hk, TriangleCornersFormTriangles) {
  const std::uint32_t k = 2;
  const auto hk = build_hk(k);
  for (const Side s : {Side::Top, Side::Bottom})
    for (std::uint32_t i = 0; i < k; ++i) {
      const Vertex a = hk.layout.triangle_vertex(s, i, Corner::A);
      const Vertex b = hk.layout.triangle_vertex(s, i, Corner::B);
      const Vertex m = hk.layout.triangle_vertex(s, i, Corner::Mid);
      EXPECT_TRUE(hk.graph.has_edge(a, b));
      EXPECT_TRUE(hk.graph.has_edge(b, m));
      EXPECT_TRUE(hk.graph.has_edge(a, m));
    }
}

TEST(Hk, TopBottomEdgesPresent) {
  const auto hk = build_hk(2);
  EXPECT_TRUE(hk.graph.has_edge(hk.layout.endpoint(Side::Top, Corner::A),
                                hk.layout.endpoint(Side::Bottom, Corner::A)));
  EXPECT_TRUE(hk.graph.has_edge(hk.layout.endpoint(Side::Top, Corner::B),
                                hk.layout.endpoint(Side::Bottom, Corner::B)));
  EXPECT_FALSE(hk.graph.has_edge(hk.layout.endpoint(Side::Top, Corner::A),
                                 hk.layout.endpoint(Side::Bottom, Corner::B)));
}

TEST(Hk, MarkerAssignmentMatchesOwnership) {
  // A-classes use Alice's cliques {6,8}, B-classes Bob's {7,9}, Mid 10.
  EXPECT_EQ(marker_clique_size(Side::Top, Corner::A), 6u);
  EXPECT_EQ(marker_clique_size(Side::Bottom, Corner::A), 8u);
  EXPECT_EQ(marker_clique_size(Side::Top, Corner::B), 7u);
  EXPECT_EQ(marker_clique_size(Side::Bottom, Corner::B), 9u);
  EXPECT_EQ(marker_clique_size(Side::Top, Corner::Mid), 10u);
  EXPECT_EQ(marker_clique_size(Side::Bottom, Corner::Mid), 10u);
}

// ----------------------------------------------------------------- G_{k,n}
TEST(Gkn, FrameSizeMatchesDefinition) {
  for (const std::uint32_t k : {2u, 3u})
    for (const std::uint32_t n : {2u, 5u, 9u}) {
      const auto g = build_gkn_frame(k, n);
      EXPECT_EQ(g.layout.m,
                k * static_cast<std::uint32_t>(ceil_kth_root(n, k)));
      EXPECT_EQ(g.graph.num_vertices(), 4 * n + 6 * g.layout.m + 40);
    }
}

TEST(Gkn, Property1DiameterThree) {
  for (const std::uint32_t n : {2u, 6u}) {
    const auto g = build_gkn_frame(2, n);
    EXPECT_EQ(diameter(g.graph), 3u) << "n=" << n;
  }
}

TEST(Gkn, SubsetEncodingIsInjective) {
  const auto g = build_gkn_frame(2, 9);
  std::set<std::vector<std::uint32_t>> seen;
  for (std::uint32_t i = 0; i < 9; ++i) {
    const auto q = g.layout.subset_of(i);
    EXPECT_EQ(q.size(), 2u);
    seen.insert(q);
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(Gkn, FramePortOrderIsPinned) {
  // Position p in row v is v's port p, and ports number every message, so
  // the builder's edge order fixes every trace, snapshot and perf pin. A
  // change that reorders it must fail here rather than drift a nightly fit.
  // CRC-32 over csr().offsets (64-bit words) and csr().neighbors (32-bit).
  struct Pin {
    std::uint32_t k, offsets, neighbors;
  };
  constexpr Pin kPins[] = {{2, 0xaaf8de03u, 0xd5fb77c0u},
                           {3, 0xb9f13339u, 0x5e9777d4u},
                           {4, 0x60f117d6u, 0x3bf2779au}};
  for (const Pin& pin : kPins) {
    const auto g = build_gkn_frame(pin.k, 4096);
    const GraphCsr& csr = g.graph.csr();
    Crc32 offsets, neighbors;
    for (const std::uint64_t o : csr.offsets) offsets.bits(o, 64);
    for (const Vertex w : csr.neighbors) neighbors.bits(w, 32);
    EXPECT_EQ(offsets.value(), pin.offsets) << "k=" << pin.k;
    EXPECT_EQ(neighbors.value(), pin.neighbors) << "k=" << pin.k;
  }
}

TEST(Gkn, EndpointWiredToItsSubsetTriangles) {
  const std::uint32_t k = 2, n = 5;
  const auto g = build_gkn_frame(k, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto q = g.layout.subset_of(i);
    const Vertex end = g.layout.endpoint(Side::Top, Corner::A, i);
    for (std::uint32_t j = 0; j < g.layout.m; ++j) {
      const bool wired = g.graph.has_edge(
          end, g.layout.triangle_vertex(Side::Top, j, Corner::A));
      const bool in_q = std::find(q.begin(), q.end(), j) != q.end();
      EXPECT_EQ(wired, in_q) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Gkn, Lemma31StructuralMatchesDisjointness) {
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t n = 4;
    const bool intersecting = trial % 2 == 0;
    const auto inst = comm::random_disjointness(
        static_cast<std::uint64_t>(n) * n, 0.2, intersecting, rng);
    const auto g = build_gxy(2, n, inst);
    EXPECT_EQ(contains_hk_structurally(g), intersecting)
        << "trial " << trial;
  }
}

TEST(Gkn, Lemma31AgreesWithVf2OracleSmall) {
  // The structural criterion must coincide with genuine H_k-subgraph
  // containment (Lemma 3.1). Cross-check with VF2 at the smallest size.
  Rng rng(57);
  const std::uint32_t k = 1, n = 2;
  const auto hk = build_hk(k);
  for (int trial = 0; trial < 6; ++trial) {
    const bool intersecting = trial % 2 == 0;
    const auto inst = comm::random_disjointness(
        static_cast<std::uint64_t>(n) * n, 0.3, intersecting, rng);
    const auto g = build_gxy(k, n, inst);
    SubgraphSearchOptions opts;
    opts.max_steps = 50'000'000;
    EXPECT_EQ(contains_subgraph(g.graph, hk.graph, opts), intersecting)
        << "VF2 disagrees with Lemma 3.1 at trial " << trial;
    EXPECT_EQ(contains_hk_structurally(g), intersecting);
  }
}

TEST(Gkn, OwnershipPartitionShapes) {
  const auto g = build_gkn_frame(2, 6);
  const auto owner = gkn_ownership(g.layout);
  ASSERT_EQ(owner.size(), g.graph.num_vertices());
  std::size_t alice = 0, bob = 0, shared = 0;
  for (const auto o : owner) {
    if (o == comm::Owner::Alice) ++alice;
    if (o == comm::Owner::Bob) ++bob;
    if (o == comm::Owner::Shared) ++shared;
  }
  // Alice: 2n endpoints + 2m corners + cliques 6+8; Bob symmetric (7+9);
  // shared: 2m mid corners + clique 10.
  EXPECT_EQ(alice, 2u * 6 + 2u * g.layout.m + 14);
  EXPECT_EQ(bob, 2u * 6 + 2u * g.layout.m + 16);
  EXPECT_EQ(shared, 2u * g.layout.m + 10);
}

TEST(Gkn, CutSizeIsOrderKTimesRoot) {
  // The structural cut should be 6m + O(1) edges, m = k⌈n^{1/k}⌉.
  for (const std::uint32_t n : {4u, 16u, 64u}) {
    const auto g = build_gkn_frame(2, n);
    const auto owner = gkn_ownership(g.layout);
    std::uint64_t cut = 0;
    for (const auto& [u, v] : g.graph.edges()) {
      const bool priv_u = owner[u] != comm::Owner::Shared;
      const bool priv_v = owner[v] != comm::Owner::Shared;
      if ((priv_u || priv_v) && owner[u] != owner[v]) ++cut;
    }
    EXPECT_GE(cut, 6u * g.layout.m);
    EXPECT_LE(cut, 6u * g.layout.m + 16);
  }
}

TEST(Gkn, InputEdgesOnlyBetweenMatchingEndpoints) {
  Rng rng(59);
  const std::uint32_t n = 4;
  const auto inst = comm::random_disjointness(16, 0.4, true, rng);
  const auto with_inputs = build_gxy(2, n, inst);
  const auto frame = build_gkn_frame(2, n);
  // Every extra edge relative to the frame joins a top endpoint to a bottom
  // endpoint of the same direction.
  const auto frame_edges = frame.graph.edges();
  std::set<std::pair<Vertex, Vertex>> frame_set(frame_edges.begin(),
                                                frame_edges.end());
  const auto& l = with_inputs.layout;
  for (const auto& e : with_inputs.graph.edges()) {
    if (frame_set.count(e)) continue;
    bool matches = false;
    for (const Corner dir : {Corner::A, Corner::B})
      for (std::uint32_t i = 0; i < n && !matches; ++i)
        for (std::uint32_t j = 0; j < n && !matches; ++j)
          matches = e == std::minmax({l.endpoint(Side::Top, dir, i),
                                      l.endpoint(Side::Bottom, dir, j)});
    EXPECT_TRUE(matches) << "unexpected edge " << e.first << "," << e.second;
  }
}

TEST(Gkn, BuildRejectsWrongUniverse) {
  comm::DisjointnessInstance inst;
  inst.universe = 5;  // not n^2
  EXPECT_THROW(build_gxy(2, 3, inst), CheckFailure);
}

// ---------------------------------------------------------- disjointness --
TEST(Disjointness, RandomInstancesRespectFlag) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const bool want = trial % 2 == 0;
    const auto inst = comm::random_disjointness(64, 0.15, want, rng);
    EXPECT_EQ(inst.intersects(), want);
    for (const auto e : inst.x) EXPECT_LT(e, 64u);
    EXPECT_TRUE(std::is_sorted(inst.x.begin(), inst.x.end()));
    EXPECT_TRUE(std::is_sorted(inst.y.begin(), inst.y.end()));
  }
}

TEST(Disjointness, PairElementRoundTrip) {
  for (std::uint64_t i = 0; i < 7; ++i)
    for (std::uint64_t j = 0; j < 7; ++j) {
      const auto e = comm::pair_to_element(i, j, 7);
      EXPECT_LT(e, 49u);
      EXPECT_EQ(comm::element_to_pair(e, 7), std::make_pair(i, j));
    }
}

}  // namespace
}  // namespace csd::lb
