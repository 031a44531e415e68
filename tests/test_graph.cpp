// Unit tests for the graph substrate: Graph, builders, centralized
// algorithms, the ground-truth oracles, and the VF2 subgraph oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "graph/oracle.hpp"
#include "graph/vf2.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace csd {
namespace {

// ---------------------------------------------------------------- graph --
TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0), CheckFailure);
  EXPECT_THROW(g.add_edge(0, 3), CheckFailure);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), CheckFailure);  // duplicate
  EXPECT_FALSE(g.add_edge_if_absent(0, 1));
  EXPECT_TRUE(g.add_edge_if_absent(1, 2));
}

TEST(Graph, EdgeSetSurvivesGrowthCopyAndMove) {
  // 1500 edges take the flat edge set through eight table doublings; after
  // each batch a copy and a moved-to graph must answer has_edge for every
  // pair exactly as the reference set does.
  const Vertex n = 120;
  Graph g(n);
  std::set<std::pair<Vertex, Vertex>> ref;
  Rng rng(17);
  const auto expect_same = [&](const Graph& h) {
    ASSERT_EQ(h.num_edges(), ref.size());
    for (Vertex u = 0; u < n; ++u)
      for (Vertex v = 0; v < n; ++v)
        ASSERT_EQ(h.has_edge(u, v),
                  ref.count({std::min(u, v), std::max(u, v)}) != 0)
            << u << "," << v;
  };
  for (const std::size_t target : {1u, 7u, 8u, 9u, 100u, 1500u}) {
    while (ref.size() < target) {
      const auto u = static_cast<Vertex>(rng.below(n));
      const auto v = static_cast<Vertex>(rng.below(n));
      if (u == v || !ref.insert({std::min(u, v), std::max(u, v)}).second)
        continue;
      g.add_edge(u, v);
    }
    const Graph copy = g;
    expect_same(copy);
    Graph moved_from = g;
    const Graph moved = std::move(moved_from);
    expect_same(moved);
  }
  // A copy owns its table: growing it leaves the original untouched.
  Graph copy = g;
  copy.add_vertices(1);
  for (Vertex u = 0; u < n; ++u) copy.add_edge(u, n);
  EXPECT_FALSE(g.has_edge(0, n));
  EXPECT_TRUE(copy.has_edge(n, 0));
  expect_same(g);
  // Rejection is unchanged across growth, in either endpoint order.
  const auto [a, b] = *ref.begin();
  EXPECT_THROW(g.add_edge(a, b), CheckFailure);
  EXPECT_THROW(g.add_edge(b, a), CheckFailure);
  EXPECT_THROW(copy.add_edge(b, a), CheckFailure);
  EXPECT_THROW(g.add_edge(a, a), CheckFailure);
  EXPECT_FALSE(g.add_edge_if_absent(b, a));
  EXPECT_EQ(g.num_edges(), ref.size());
}

TEST(Graph, ConstGraphIsSafeToShareAcrossThreads) {
  // csr() builds a fresh value and writes nothing in the Graph, so threads
  // may call it on one const Graph at once (the TSan job runs this).
  Rng rng(5);
  const Graph g = build::gnm(2000, 8000, rng);
  GraphCsr a, b;
  std::thread first([&] { a = g.csr(); });
  std::thread second([&] { b = g.csr(); });
  first.join();
  second.join();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.neighbors, b.neighbors);
  EXPECT_EQ(a.num_directed_edges(), 2 * g.num_edges());
}

TEST(Graph, EdgesAreSortedAndComplete) {
  Graph g(4);
  g.add_edge(2, 3);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  const auto e = g.edges();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_TRUE(std::is_sorted(e.begin(), e.end()));
  EXPECT_EQ(e[0], std::make_pair(Vertex{0}, Vertex{1}));
}

TEST(Graph, InducedSubgraph) {
  Graph g = build::cycle(5);
  const Graph sub = g.induced_subgraph({0, 1, 2});
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // path 0-1-2; edge 4-0 dropped
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(0, 2));
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  Graph g = build::path(4);
  EXPECT_THROW(g.induced_subgraph({0, 0}), CheckFailure);
}

TEST(Graph, AppendDisjoint) {
  Graph g = build::cycle(3);
  const Vertex off = g.append_disjoint(build::cycle(4));
  EXPECT_EQ(off, 3u);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, MaxDegree) {
  EXPECT_EQ(build::star(7).max_degree(), 7u);
  EXPECT_EQ(build::cycle(9).max_degree(), 2u);
}

TEST(Graph, SortAdjacencyGivesDeterministicIteration) {
  Graph g(5);
  g.add_edge(4, 0);
  g.add_edge(2, 0);
  g.add_edge(3, 0);
  g.sort_adjacency();
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

// -------------------------------------------------------------- builders --
TEST(Builders, BasicShapes) {
  EXPECT_EQ(build::path(6).num_edges(), 5u);
  EXPECT_EQ(build::cycle(6).num_edges(), 6u);
  EXPECT_EQ(build::complete(7).num_edges(), 21u);
  EXPECT_EQ(build::complete_bipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(build::star(5).num_edges(), 5u);
  EXPECT_EQ(build::grid(3, 4).num_edges(), 17u);
}

TEST(Builders, PetersenProperties) {
  const Graph p = build::petersen();
  EXPECT_EQ(p.num_vertices(), 10u);
  EXPECT_EQ(p.num_edges(), 15u);
  EXPECT_EQ(p.max_degree(), 3u);
  EXPECT_EQ(oracle::girth(p), 5u);
  EXPECT_EQ(diameter(p), 2u);
}

TEST(Builders, GnpDensityMatches) {
  Rng rng(5);
  const Graph g = build::gnp(60, 0.3, rng);
  const double expected = 0.3 * 60 * 59 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.25);
}

TEST(Builders, GnmExactEdges) {
  Rng rng(6);
  const Graph g = build::gnm(30, 100, rng);
  EXPECT_EQ(g.num_vertices(), 30u);
  EXPECT_EQ(g.num_edges(), 100u);
}

TEST(Builders, RandomBipartiteIsBipartite) {
  Rng rng(8);
  const Graph g = build::random_bipartite(12, 15, 0.4, rng);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Builders, RandomTreeIsTree) {
  Rng rng(9);
  for (const Vertex n : {1u, 2u, 3u, 10u, 57u}) {
    const Graph t = build::random_tree(n, rng);
    EXPECT_EQ(t.num_vertices(), n);
    EXPECT_EQ(t.num_edges(), n - 1);
    EXPECT_TRUE(is_connected(t));
  }
}

TEST(Builders, RandomBoundedDegreeRespectsBound) {
  Rng rng(10);
  const Graph g = build::random_bounded_degree(40, 5, rng);
  EXPECT_LE(g.max_degree(), 5u);
}

TEST(Builders, PolarityGraphIsC4FreeAndDense) {
  for (const std::uint32_t q : {3u, 5u, 7u}) {
    const Graph g = build::polarity_graph(q);
    EXPECT_EQ(g.num_vertices(), q * q + q + 1);
    EXPECT_FALSE(oracle::has_cycle_of_length(g, 4))
        << "ER_q must be C4-free, q=" << q;
    // Edge count ~ q(q+1)^2/2: dense near the extremal bound.
    EXPECT_GE(g.num_edges(), static_cast<std::uint64_t>(q) * q * (q - 1) / 2);
  }
}

TEST(Builders, IncidenceGraphIsGirthSix) {
  // Projective-plane incidence graphs are the C_4-free bipartite extremal
  // (girth exactly 6: triangles of lines exist in any projective plane).
  for (const std::uint32_t q : {2u, 3u, 5u}) {
    const Graph g = build::incidence_graph(q);
    EXPECT_EQ(g.num_vertices(), 2 * (q * q + q + 1));
    EXPECT_EQ(g.num_edges(),
              static_cast<std::uint64_t>(q + 1) * (q * q + q + 1));
    EXPECT_TRUE(is_bipartite(g));
    EXPECT_EQ(oracle::girth(g), 6u) << "q=" << q;
    EXPECT_FALSE(oracle::has_cycle_of_length(g, 4));
  }
}

TEST(Builders, GeneralizedQuadrangleIsGirthEight) {
  for (const std::uint32_t q : {3u, 5u}) {
    const Graph g = build::generalized_quadrangle_incidence(q);
    const std::uint64_t per_side =
        static_cast<std::uint64_t>(q + 1) * (q * q + 1);
    EXPECT_EQ(g.num_vertices(), 2 * per_side);
    EXPECT_EQ(g.num_edges(), per_side * (q + 1));
    EXPECT_TRUE(is_bipartite(g));
    EXPECT_EQ(g.max_degree(), q + 1);
    EXPECT_EQ(oracle::girth(g), 8u) << "q=" << q;
  }
}

TEST(Builders, DisjointCopies) {
  const Graph g = build::disjoint_copies(build::cycle(4), 3);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(connected_components(g)[11], 2u);
}

TEST(Builders, PlantSubgraphCreatesCopy) {
  Rng rng(12);
  Graph host = build::gnp(30, 0.05, rng);
  const Graph pattern = build::cycle(6);
  const auto image = build::plant_subgraph(host, pattern, rng);
  EXPECT_TRUE(is_valid_embedding(host, pattern, image));
  EXPECT_TRUE(oracle::has_cycle_of_length(host, 6));
}

TEST(Builders, RandomHighGirthHasNoShortCycles) {
  Rng rng(14);
  const Graph g = build::random_high_girth(40, 80, 6, rng);
  const Vertex girth = oracle::girth(g);
  EXPECT_TRUE(girth == 0 || girth > 6) << "girth " << girth;
}

// ------------------------------------------------------------ algorithms --
TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = build::path(5);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Algorithms, BfsUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Algorithms, Connectivity) {
  EXPECT_TRUE(is_connected(build::cycle(8)));
  EXPECT_FALSE(is_connected(build::disjoint_copies(build::cycle(3), 2)));
  EXPECT_TRUE(is_connected(Graph{}));
}

TEST(Algorithms, ConnectedComponentsIds) {
  const Graph g = build::disjoint_copies(build::path(3), 3);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_EQ(*std::max_element(comp.begin(), comp.end()), 2u);
}

TEST(Algorithms, Diameter) {
  EXPECT_EQ(diameter(build::path(7)), 6u);
  EXPECT_EQ(diameter(build::complete(5)), 1u);
  EXPECT_EQ(diameter(build::cycle(8)), 4u);
  EXPECT_EQ(diameter(build::disjoint_copies(build::path(2), 2)),
            kUnreachable);
}

TEST(Algorithms, Bipartiteness) {
  EXPECT_TRUE(is_bipartite(build::cycle(8)));
  EXPECT_FALSE(is_bipartite(build::cycle(9)));
  EXPECT_TRUE(is_bipartite(build::complete_bipartite(4, 5)));
  EXPECT_FALSE(is_bipartite(build::complete(3)));
  std::vector<std::uint8_t> side;
  ASSERT_TRUE(is_bipartite(build::cycle(4), &side));
  EXPECT_NE(side[0], side[1]);
  EXPECT_EQ(side[0], side[2]);
}

TEST(Algorithms, Degeneracy) {
  EXPECT_EQ(degeneracy(build::complete(6)), 5u);
  EXPECT_EQ(degeneracy(build::cycle(10)), 2u);
  EXPECT_EQ(degeneracy(build::star(9)), 1u);
  std::vector<Vertex> order;
  Rng rng(1);
  EXPECT_EQ(degeneracy(build::random_tree(20, rng), &order), 1u);
  EXPECT_EQ(order.size(), 20u);
}

TEST(Algorithms, LayerDecompositionCoversSparseGraphs) {
  Rng rng(21);
  const Graph g = build::gnm(60, 120, rng);  // avg degree 4
  const auto d = layer_decomposition(g, 8, 10);
  EXPECT_TRUE(d.unassigned.empty());
  EXPECT_LE(max_up_degree(g, d), 8u);
}

TEST(Algorithms, LayerDecompositionStallsOnClique) {
  const Graph g = build::complete(12);
  const auto d = layer_decomposition(g, 3, 20);
  EXPECT_EQ(d.unassigned.size(), 12u);  // nobody ever has degree <= 3
}

TEST(Algorithms, LayerDecompositionUpDegreeInvariant) {
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = build::gnp(50, 0.12, rng);
    const auto d = layer_decomposition(g, 9, 12);
    EXPECT_LE(max_up_degree(g, d), 9u);
  }
}

// --------------------------------------------------------------- oracle --
TEST(Oracle, CycleDetectionOnCanonicalGraphs) {
  EXPECT_TRUE(oracle::has_cycle_of_length(build::cycle(6), 6));
  EXPECT_FALSE(oracle::has_cycle_of_length(build::cycle(6), 4));
  EXPECT_FALSE(oracle::has_cycle_of_length(build::cycle(6), 5));
  EXPECT_FALSE(oracle::has_cycle_of_length(build::path(9), 3));
  EXPECT_TRUE(oracle::has_cycle_of_length(build::complete(5), 3));
  EXPECT_TRUE(oracle::has_cycle_of_length(build::complete(5), 4));
  EXPECT_TRUE(oracle::has_cycle_of_length(build::complete(5), 5));
  EXPECT_TRUE(oracle::has_cycle_of_length(build::complete_bipartite(3, 3), 6));
  EXPECT_FALSE(oracle::has_cycle_of_length(build::complete_bipartite(3, 3), 5));
}

TEST(Oracle, FindCycleReturnsRealCycle) {
  const Graph g = build::grid(4, 4);
  const auto cycle = oracle::find_cycle_of_length(g, 8);
  ASSERT_TRUE(cycle.has_value());
  ASSERT_EQ(cycle->size(), 8u);
  for (std::size_t i = 0; i < cycle->size(); ++i)
    EXPECT_TRUE(g.has_edge((*cycle)[i], (*cycle)[(i + 1) % cycle->size()]));
  std::set<Vertex> distinct(cycle->begin(), cycle->end());
  EXPECT_EQ(distinct.size(), 8u);
}

TEST(Oracle, CycleCounts) {
  EXPECT_EQ(oracle::count_cycles_of_length(build::cycle(7), 7), 1u);
  EXPECT_EQ(oracle::count_cycles_of_length(build::complete(4), 3), 4u);
  EXPECT_EQ(oracle::count_cycles_of_length(build::complete(4), 4), 3u);
  EXPECT_EQ(oracle::count_cycles_of_length(build::complete(5), 5), 12u);
  EXPECT_EQ(oracle::count_cycles_of_length(build::complete_bipartite(2, 2), 4),
            1u);
  EXPECT_EQ(oracle::count_cycles_of_length(build::complete_bipartite(3, 3), 4),
            9u);
}

TEST(Oracle, Girth) {
  EXPECT_EQ(oracle::girth(build::path(10)), 0u);
  EXPECT_EQ(oracle::girth(build::cycle(11)), 11u);
  EXPECT_EQ(oracle::girth(build::complete(4)), 3u);
  EXPECT_EQ(oracle::girth(build::grid(3, 3)), 4u);
  EXPECT_EQ(oracle::girth(build::petersen()), 5u);
}

TEST(Oracle, FindShortestCycle) {
  EXPECT_FALSE(oracle::find_shortest_cycle(build::path(5)).has_value());
  const auto c = oracle::find_shortest_cycle(build::petersen());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 5u);
}

TEST(Oracle, CliqueQueries) {
  EXPECT_TRUE(oracle::has_clique(build::complete(6), 6));
  EXPECT_FALSE(oracle::has_clique(build::complete(6), 7));
  EXPECT_EQ(oracle::count_cliques(build::complete(6), 3), 20u);
  EXPECT_EQ(oracle::count_cliques(build::complete(6), 4), 15u);
  EXPECT_EQ(oracle::count_cliques(build::petersen(), 3), 0u);
  EXPECT_EQ(oracle::count_cliques(build::cycle(5), 2), 5u);  // edges
}

TEST(Oracle, ListCliquesIsCompleteAndSorted) {
  const auto list = oracle::list_cliques(build::complete(5), 3);
  EXPECT_EQ(list.size(), 10u);
  std::set<std::vector<Vertex>> distinct(list.begin(), list.end());
  EXPECT_EQ(distinct.size(), 10u);
  for (const auto& c : list) EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
}

TEST(Oracle, HasTree) {
  const Graph host = build::grid(3, 3);
  EXPECT_TRUE(oracle::has_tree(host, build::star(4)));   // center has deg 4
  EXPECT_FALSE(oracle::has_tree(host, build::star(5)));  // max degree is 4
  EXPECT_TRUE(oracle::has_tree(host, build::path(9)));   // hamiltonian path
  EXPECT_THROW(oracle::has_tree(host, build::cycle(4)), CheckFailure);
}

// ------------------------------------------------------------------ vf2 --
TEST(Vf2, FindsPlantedPattern) {
  Rng rng(31);
  Graph host = build::gnp(25, 0.08, rng);
  const Graph pattern = build::petersen();
  build::plant_subgraph(host, pattern, rng);
  const auto embedding = find_subgraph(host, pattern);
  ASSERT_TRUE(embedding.has_value());
  EXPECT_TRUE(is_valid_embedding(host, pattern, *embedding));
}

TEST(Vf2, RejectsAbsentPattern) {
  EXPECT_FALSE(contains_subgraph(build::cycle(8), build::complete(3)));
  EXPECT_FALSE(contains_subgraph(build::complete_bipartite(4, 4),
                                 build::cycle(5)));
  EXPECT_FALSE(contains_subgraph(build::path(20), build::star(3)));
}

TEST(Vf2, SubgraphNotInduced) {
  // K4 contains C4 as a (non-induced) subgraph.
  EXPECT_TRUE(contains_subgraph(build::complete(4), build::cycle(4)));
}

TEST(Vf2, AgreesWithCycleOracleOnRandomGraphs) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = build::gnp(14, 0.18, rng);
    for (const Vertex len : {3u, 4u, 5u, 6u}) {
      EXPECT_EQ(contains_subgraph(g, build::cycle(len)),
                oracle::has_cycle_of_length(g, len))
          << "trial " << trial << " len " << len;
    }
  }
}

TEST(Vf2, AgreesWithCliqueOracleOnRandomGraphs) {
  Rng rng(34);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = build::gnp(13, 0.45, rng);
    for (const Vertex s : {3u, 4u, 5u}) {
      EXPECT_EQ(contains_subgraph(g, build::complete(s)),
                oracle::has_clique(g, s))
          << "trial " << trial << " s " << s;
    }
  }
}

TEST(Vf2, EmptyPatternAlwaysEmbeds) {
  EXPECT_TRUE(contains_subgraph(build::path(3), Graph{}));
}

TEST(Vf2, StepBudgetEnforced) {
  SubgraphSearchOptions opts;
  opts.max_steps = 2;
  EXPECT_THROW(
      contains_subgraph(build::complete(12), build::complete(8), opts),
      CheckFailure);
}

TEST(Vf2, ValidEmbeddingChecks) {
  const Graph host = build::cycle(5);
  const Graph pattern = build::path(3);
  EXPECT_TRUE(is_valid_embedding(host, pattern, {0, 1, 2}));
  EXPECT_FALSE(is_valid_embedding(host, pattern, {0, 1, 3}));  // 1-3 no edge
  EXPECT_FALSE(is_valid_embedding(host, pattern, {0, 1, 0}));  // not injective
  EXPECT_FALSE(is_valid_embedding(host, pattern, {0, 1}));     // wrong size
}

}  // namespace
}  // namespace csd
