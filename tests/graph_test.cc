#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "tests/test_util.h"

namespace lightnet {
namespace {

WeightedGraph triangle() {
  return WeightedGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 4.0}});
}

TEST(WeightedGraph, BasicCounts) {
  const WeightedGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.total_weight(), 7.0);
  EXPECT_DOUBLE_EQ(g.min_edge_weight(), 1.0);
  EXPECT_DOUBLE_EQ(g.max_edge_weight(), 4.0);
}

TEST(WeightedGraph, AdjacencyIsComplete) {
  const WeightedGraph g = triangle();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(2), 2);
  bool saw1 = false, saw2 = false;
  for (const Incidence& inc : g.incident(0)) {
    if (inc.neighbor == 1) saw1 = true;
    if (inc.neighbor == 2) saw2 = true;
  }
  EXPECT_TRUE(saw1 && saw2);
}

TEST(WeightedGraph, FindEdge) {
  const WeightedGraph g = triangle();
  EXPECT_NE(g.find_edge(0, 2), kNoEdge);
  EXPECT_EQ(g.edge(g.find_edge(0, 2)).w, 4.0);
  const WeightedGraph g2 =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_EQ(g2.find_edge(0, 3), kNoEdge);
}

TEST(WeightedGraph, OtherEndpoint) {
  const WeightedGraph g = triangle();
  const EdgeId e = g.find_edge(1, 2);
  EXPECT_EQ(g.other_endpoint(e, 1), 2);
  EXPECT_EQ(g.other_endpoint(e, 2), 1);
}

TEST(WeightedGraph, RejectsSelfLoops) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 0, 1.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, RejectsParallelEdges) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 1.0}, {1, 0, 2.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, RejectsBadWeights) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, -1.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 2, 1.0}}),
               std::invalid_argument);
}

TEST(WeightedGraph, Connectivity) {
  EXPECT_TRUE(triangle().is_connected());
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_FALSE(g.is_connected());
}

TEST(WeightedGraph, HopDiameterIgnoresWeights) {
  const WeightedGraph path =
      WeightedGraph::from_edges(4, {{0, 1, 9.0}, {1, 2, 9.0}, {2, 3, 9.0}});
  EXPECT_EQ(path.hop_diameter(), 3);
  EXPECT_EQ(triangle().hop_diameter(), 1);
}

TEST(WeightedGraph, EdgeSubgraph) {
  const WeightedGraph g = triangle();
  const EdgeId keep[] = {0, 1};
  const WeightedGraph sub = g.edge_subgraph(keep);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_DOUBLE_EQ(sub.total_weight(), 3.0);
}

TEST(RootedTree, FromEdgeSetBuildsParents) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}, {0, 2, 9.0}});
  const std::vector<EdgeId> tree_edges{0, 1, 2};
  const RootedTree t = RootedTree::from_edge_set(g, 0, tree_edges);
  EXPECT_EQ(t.root, 0);
  EXPECT_EQ(t.parent[1], 0);
  EXPECT_EQ(t.parent[2], 1);
  EXPECT_EQ(t.parent[3], 1);
  EXPECT_DOUBLE_EQ(t.total_weight(), 6.0);
}

TEST(RootedTree, FromEdgeSetRejectsNonSpanning) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}});
  EXPECT_THROW(RootedTree::from_edge_set(g, 0, std::vector<EdgeId>{0, 1}),
               std::invalid_argument);
}

TEST(RootedTree, DistancesFromRoot) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}});
  const RootedTree t =
      RootedTree::from_edge_set(g, 0, std::vector<EdgeId>{0, 1, 2});
  const auto dist = t.distances_from_root();
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);
  EXPECT_DOUBLE_EQ(dist[3], 4.0);
}

TEST(RootedTree, PreorderVisitsChildrenInIdOrder) {
  const WeightedGraph g = WeightedGraph::from_edges(
      5, {{0, 3, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}, {1, 4, 1.0}});
  const RootedTree t =
      RootedTree::from_edge_set(g, 0, std::vector<EdgeId>{0, 1, 2, 3});
  const auto order = t.preorder();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // child 1 before child 3
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 4);
  EXPECT_EQ(order[4], 3);
}

TEST(RootedTree, FromParentsRejectsCycles) {
  // 1 <-> 2 cycle detached from root 0.
  EXPECT_THROW(
      RootedTree::from_parents(0, {kNoVertex, 2, 1}, {kNoEdge, 0, 1},
                               {0.0, 1.0, 1.0}),
      std::invalid_argument);
}

TEST(RootedTree, EdgeIdsRoundTrip) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {1, 3, 3.0}});
  const RootedTree t =
      RootedTree::from_edge_set(g, 2, std::vector<EdgeId>{0, 1, 2});
  auto ids = t.edge_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<EdgeId>{0, 1, 2}));
}

TEST(DedupeEdgeIds, RemovesDuplicatesAndSorts) {
  EXPECT_EQ(dedupe_edge_ids({3, 1, 3, 2, 1}, 5),
            (std::vector<EdgeId>{1, 2, 3}));
  EXPECT_EQ(dedupe_edge_ids({4, 0, 4}, 5), (std::vector<EdgeId>{0, 4}));
  EXPECT_TRUE(dedupe_edge_ids({}, 5).empty());
  EXPECT_THROW(dedupe_edge_ids({5}, 5), std::logic_error);
}

TEST(WeightedGraph, ZooGraphsAreConnected) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    EXPECT_TRUE(g.is_connected()) << name;
    EXPECT_GE(g.num_edges(), g.num_vertices() - 1) << name;
  }
}

}  // namespace
}  // namespace lightnet
