#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "graph/metrics.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

TEST(Generators, GeometricIsConnectedAndMetric) {
  const GeometricGraph geo = random_geometric(64, 0.2, 7);
  EXPECT_TRUE(geo.graph.is_connected());
  EXPECT_EQ(geo.graph.num_vertices(), 64);
  // Edge weights equal the Euclidean point distances.
  for (const Edge& e : geo.graph.edges()) {
    const double dx = geo.x[static_cast<size_t>(e.u)] -
                      geo.x[static_cast<size_t>(e.v)];
    const double dy = geo.y[static_cast<size_t>(e.u)] -
                      geo.y[static_cast<size_t>(e.v)];
    EXPECT_NEAR(e.w, std::sqrt(dx * dx + dy * dy), 1e-8);
  }
}

TEST(Generators, GeometricIsDeterministicPerSeed) {
  const GeometricGraph a = random_geometric(32, 0.3, 42);
  const GeometricGraph b = random_geometric(32, 0.3, 42);
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (EdgeId i = 0; i < a.graph.num_edges(); ++i) {
    EXPECT_EQ(a.graph.edge(i).u, b.graph.edge(i).u);
    EXPECT_EQ(a.graph.edge(i).v, b.graph.edge(i).v);
    EXPECT_DOUBLE_EQ(a.graph.edge(i).w, b.graph.edge(i).w);
  }
}

// FNV-1a 64 over every edge's (u, v, bit pattern of w), in edge-id order.
std::uint64_t edge_list_digest(const WeightedGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : g.edges()) {
    std::uint64_t w_bits;
    std::memcpy(&w_bits, &e.w, sizeof w_bits);
    mix(static_cast<std::uint64_t>(e.u));
    mix(static_cast<std::uint64_t>(e.v));
    mix(w_bits);
  }
  return h;
}

// Pinned edge lists (ids, endpoint order and weight bits) of the geometric
// generator, so a faster pair search cannot change any scenario's graph.
TEST(Generators, GeometricEdgeListsArePinned) {
  struct Case {
    int n;
    double radius;
    std::uint64_t seed;
    bool needs_mst;  // radius graph alone disconnected: Prim fallback
    int edges;
    std::uint64_t digest;
  };
  // The scenario layer's automatic radius, sqrt(10 / n).
  const double auto100 = std::sqrt(10.0 / 100);
  const double auto1024 = std::sqrt(10.0 / 1024);
  const Case cases[] = {
      {100, auto100, 1, false, 1148, 0x0e84f37f8b19ee47ULL},
      {100, auto100, 2, false, 1192, 0x927e4d636ff0f2abULL},
      {1024, auto1024, 1, false, 15054, 0xe102a7ac47035e9eULL},
      {1024, auto1024, 2, false, 14679, 0x3576422925237c46ULL},
      {200, 0.02, 3, true, 199, 0xdb40f7ee90604bc4ULL},
      {200, 0.05, 3, true, 229, 0x5ae4af4af17e39d5ULL},
  };
  for (const Case& c : cases) {
    const GeometricGraph geo = random_geometric(c.n, c.radius, c.seed);
    EXPECT_EQ(geo.graph.num_edges(), c.edges) << "n=" << c.n;
    EXPECT_EQ(edge_list_digest(geo.graph), c.digest) << "n=" << c.n;
    // Only Euclidean-MST edges may be longer than the radius.
    EXPECT_EQ(geo.graph.max_edge_weight() > c.radius, c.needs_mst)
        << "n=" << c.n;
  }
}

TEST(Generators, GeometricHasLowDoublingDimension) {
  const GeometricGraph geo = random_geometric(96, 0.25, 9);
  const double ddim = estimate_doubling_dimension(geo.graph, 4, 1);
  EXPECT_LE(ddim, 6.0);  // planar-ish point sets sit well below log n
}

TEST(Generators, ErdosRenyiConnectedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WeightedGraph g =
        erdos_renyi(40, 0.1, WeightLaw::kUniform, 10.0, seed);
    EXPECT_TRUE(g.is_connected()) << "seed " << seed;
    EXPECT_GE(g.num_edges(), 39);
  }
}

TEST(Generators, ErdosRenyiDensityGrowsWithP) {
  const WeightedGraph sparse =
      erdos_renyi(60, 0.02, WeightLaw::kUnit, 1.0, 3);
  const WeightedGraph dense = erdos_renyi(60, 0.5, WeightLaw::kUnit, 1.0, 3);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
}

TEST(Generators, WeightLawsRespectBounds) {
  for (WeightLaw law : {WeightLaw::kUnit, WeightLaw::kUniform,
                        WeightLaw::kHeavyTail,
                        WeightLaw::kExponentialScales}) {
    const WeightedGraph g = erdos_renyi(30, 0.2, law, 64.0, 5);
    for (const Edge& e : g.edges()) {
      EXPECT_GE(e.w, 1.0 - 1e-9);
      EXPECT_LE(e.w, 64.0 + 1e-9);
    }
  }
}

TEST(Generators, UnitLawIsAllOnes) {
  const WeightedGraph g = erdos_renyi(20, 0.3, WeightLaw::kUnit, 99.0, 6);
  for (const Edge& e : g.edges()) EXPECT_DOUBLE_EQ(e.w, 1.0);
}

TEST(Generators, RingWithChordsStructure) {
  const WeightedGraph g = ring_with_chords(30, 10, 25.0, 4);
  EXPECT_TRUE(g.is_connected());
  int ring_edges = 0, chords = 0;
  for (const Edge& e : g.edges()) {
    if (e.w == 1.0) ++ring_edges;
    if (e.w == 25.0) ++chords;
  }
  EXPECT_EQ(ring_edges, 30);
  EXPECT_EQ(chords, 10);
}

TEST(Generators, GridDimensions) {
  const WeightedGraph g = grid(4, 7, /*perturb=*/false, 1);
  EXPECT_EQ(g.num_vertices(), 28);
  EXPECT_EQ(g.num_edges(), 4 * 6 + 3 * 7);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, PerturbedGridHasUniqueWeights) {
  const WeightedGraph g = grid(5, 5, /*perturb=*/true, 2);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 1.0);
    EXPECT_LE(e.w, 1.001);
  }
}

TEST(Generators, RandomTreeIsATree) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const WeightedGraph g = random_tree(25, WeightLaw::kUniform, 9.0, seed);
    EXPECT_EQ(g.num_edges(), 24) << "seed " << seed;
    EXPECT_TRUE(g.is_connected()) << "seed " << seed;
  }
}

TEST(Generators, PathAndStarShapes) {
  const WeightedGraph p = path_graph(10, WeightLaw::kUnit, 1.0, 1);
  EXPECT_EQ(p.num_edges(), 9);
  EXPECT_EQ(p.hop_diameter(), 9);
  const WeightedGraph s = star_graph(10, WeightLaw::kUnit, 1.0, 1);
  EXPECT_EQ(s.num_edges(), 9);
  EXPECT_EQ(s.hop_diameter(), 2);
  EXPECT_EQ(s.degree(0), 9);
}

TEST(Generators, LowerBoundFamilyShape) {
  const WeightedGraph g = lower_bound_family(6, 8, 10.0, 1);
  EXPECT_TRUE(g.is_connected());
  // Hop diameter stays logarithmic-ish in the path length thanks to the
  // column tree.
  EXPECT_LE(g.hop_diameter(), 2 * 4 + 4);
  // Unit path edges exist.
  int unit_edges = 0;
  for (const Edge& e : g.edges())
    if (e.w == 1.0) ++unit_edges;
  EXPECT_EQ(unit_edges, 6 * 7);
}

TEST(Generators, CompleteEuclideanIsComplete) {
  const GeometricGraph geo = complete_euclidean(12, 3);
  EXPECT_EQ(geo.graph.num_edges(), 12 * 11 / 2);
  EXPECT_EQ(geo.graph.hop_diameter(), 1);
}

TEST(Generators, SingleVertexEdgeCases) {
  EXPECT_EQ(path_graph(1, WeightLaw::kUnit, 1.0, 1).num_edges(), 0);
  EXPECT_EQ(star_graph(1, WeightLaw::kUnit, 1.0, 1).num_edges(), 0);
  EXPECT_EQ(random_tree(1, WeightLaw::kUnit, 1.0, 1).num_edges(), 0);
  EXPECT_EQ(random_geometric(1, 0.5, 1).graph.num_edges(), 0);
}

}  // namespace
}  // namespace lightnet
