#include "routines/hopset.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

TEST(Hopset, EdgesConnectHubsWithExactBoundedDistances) {
  const WeightedGraph g = grid(6, 6, /*perturb=*/true, 3);
  const HopsetResult hr = build_hopset(g, 4, 7);
  for (const HopsetEdge& e : hr.hopset.edges) {
    EXPECT_TRUE(hr.hopset.is_hub[static_cast<size_t>(e.u)]);
    EXPECT_TRUE(hr.hopset.is_hub[static_cast<size_t>(e.v)]);
    EXPECT_LE(e.path.size(), 4u);  // within the hop limit
    // The reported path realizes the claimed length.
    Weight sum = 0.0;
    for (EdgeId id : e.path) sum += g.edge(id).w;
    EXPECT_NEAR(sum, e.length, 1e-9);
    // And it is never shorter than the true distance.
    const ShortestPathTree t = dijkstra(g, e.u);
    EXPECT_GE(e.length, t.dist[static_cast<size_t>(e.v)] - 1e-9);
  }
}

TEST(Hopset, ReportedPathsAreWalkable) {
  const WeightedGraph g = erdos_renyi(40, 0.15, WeightLaw::kUniform, 9.0, 4);
  const HopsetResult hr = build_hopset(g, 5, 8);
  for (const HopsetEdge& e : hr.hopset.edges) {
    // Walk the path from u checking edge-to-edge continuity.
    VertexId cur = e.u;
    for (EdgeId id : e.path) {
      const Edge& ed = g.edge(id);
      ASSERT_TRUE(ed.u == cur || ed.v == cur)
          << "path edge does not continue the walk";
      cur = ed.u == cur ? ed.v : ed.u;
    }
    EXPECT_EQ(cur, e.v);
  }
}

TEST(Hopset, ReducesHopRadiusOnPaths) {
  // A long unit path needs n hops without the hopset; with it, a small hop
  // budget already reaches everything at (near-)exact distances.
  const WeightedGraph g = path_graph(60, WeightLaw::kUnit, 1.0, 1);
  const int beta = 8;
  const HopsetResult hr = build_hopset(g, beta, 9);
  const auto with_hopset =
      hop_bounded_distances_with_hopset(g, hr.hopset, 0, 3 * beta);
  const ShortestPathTree exact = dijkstra(g, 0);
  int reached = 0;
  for (VertexId v = 0; v < 60; ++v) {
    if (with_hopset[static_cast<size_t>(v)] != kInfiniteDistance) {
      ++reached;
      EXPECT_GE(with_hopset[static_cast<size_t>(v)],
                exact.dist[static_cast<size_t>(v)] - 1e-9);
    }
  }
  // Without the hopset, 24 hops reach 25 vertices; the hopset must do
  // strictly better on a 60-path (hubs ~ every 2 vertices at this rate).
  const Hopset empty{beta, {}, {}, std::vector<char>(60, 0)};
  const auto without =
      hop_bounded_distances_with_hopset(g, empty, 0, 3 * beta);
  int reached_without = 0;
  for (VertexId v = 0; v < 60; ++v)
    if (without[static_cast<size_t>(v)] != kInfiniteDistance)
      ++reached_without;
  EXPECT_GT(reached, reached_without);
}

TEST(Hopset, HubSamplingScalesWithHopLimit) {
  const WeightedGraph g = erdos_renyi(100, 0.05, WeightLaw::kUnit, 1.0, 5);
  const HopsetResult few = build_hopset(g, 50, 10);
  const HopsetResult many = build_hopset(g, 4, 10);
  EXPECT_LT(few.hopset.hubs.size(), many.hopset.hubs.size());
}

TEST(Hopset, AlwaysAtLeastOneHub) {
  const WeightedGraph g = path_graph(3, WeightLaw::kUnit, 1.0, 1);
  const HopsetResult hr = build_hopset(g, 1000, 11);
  EXPECT_GE(hr.hopset.hubs.size(), 1u);
}

TEST(Hopset, CostChargedPerEn16Shape) {
  const WeightedGraph g = grid(8, 8, /*perturb=*/false, 6);
  const HopsetResult hr = build_hopset(g, 8, 12);
  EXPECT_GT(hr.cost.rounds, 0u);
  EXPECT_EQ(hr.cost.max_edge_load, 1u);
  // The charge's D is reported for reuse: (ceil(sqrt n) + D) * beta rounds.
  EXPECT_EQ(hr.hop_diameter, 14);
  EXPECT_EQ(hr.cost.rounds, (8u + 14u) * 8u);
}

}  // namespace
}  // namespace lightnet
