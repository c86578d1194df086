// WeightedGraph::hop_diameter against a plain all-pairs BFS oracle, on
// sizes around the 64-source batch boundary and on every generator family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace lightnet {
namespace {

// One BFS per source; the largest distance seen is the diameter.
int oracle_hop_diameter(const WeightedGraph& g) {
  const int n = g.num_vertices();
  int diameter = 0;
  std::vector<int> dist(static_cast<size_t>(n));
  std::vector<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<size_t>(s)] = 0;
    queue.assign(1, s);
    for (size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      diameter = std::max(diameter, dist[static_cast<size_t>(v)]);
      for (const Incidence& inc : g.incident(v))
        if (dist[static_cast<size_t>(inc.neighbor)] < 0) {
          dist[static_cast<size_t>(inc.neighbor)] =
              dist[static_cast<size_t>(v)] + 1;
          queue.push_back(inc.neighbor);
        }
    }
  }
  return diameter;
}

void expect_matches_oracle(const WeightedGraph& g, const std::string& name) {
  EXPECT_EQ(g.hop_diameter(), oracle_hop_diameter(g)) << name;
}

WeightedGraph cycle(int n) { return ring_with_chords(n, 0, 1.0, 1); }

TEST(HopDiameter, SizesAroundTheBatchWidth) {
  for (const int n : {1, 2, 63, 64, 65, 129}) {
    const std::string at = " n=" + std::to_string(n);
    expect_matches_oracle(path_graph(n, WeightLaw::kUnit, 1.0, 1),
                          "path" + at);
    expect_matches_oracle(star_graph(n, WeightLaw::kUnit, 1.0, 1),
                          "star" + at);
    expect_matches_oracle(random_tree(n, WeightLaw::kUniform, 5.0, 2),
                          "tree" + at);
    expect_matches_oracle(erdos_renyi(n, std::min(1.0, 4.0 / n),
                                      WeightLaw::kUnit, 1.0, 3),
                          "er" + at);
    expect_matches_oracle(random_geometric(n, 0.2, 4).graph, "geo" + at);
    if (n >= 3) expect_matches_oracle(cycle(n), "cycle" + at);
  }
}

TEST(HopDiameter, SingleVertexAndEdge) {
  EXPECT_EQ(WeightedGraph::from_edges(1, {}).hop_diameter(), 0);
  EXPECT_EQ(WeightedGraph::from_edges(2, {{0, 1, 3.0}}).hop_diameter(), 1);
}

TEST(HopDiameter, LongPathSpansMoreLevelsThanBatchBits) {
  const WeightedGraph p = path_graph(200, WeightLaw::kUniform, 9.0, 5);
  EXPECT_EQ(p.hop_diameter(), 199);
  expect_matches_oracle(p, "path200");
}

TEST(HopDiameter, GeneratorFamilies) {
  expect_matches_oracle(star_graph(300, WeightLaw::kUnit, 1.0, 1), "star");
  expect_matches_oracle(complete_euclidean(70, 6).graph, "clique");
  expect_matches_oracle(cycle(257), "cycle");
  expect_matches_oracle(random_tree(300, WeightLaw::kUniform, 9.0, 7),
                        "tree");
  expect_matches_oracle(grid(13, 23, /*perturb=*/true, 8), "grid");
  expect_matches_oracle(ring_with_chords(300, 150, 40.0, 9), "ring");
  expect_matches_oracle(lower_bound_family(6, 20, 10.0, 10), "lower_bound");
  expect_matches_oracle(
      erdos_renyi(300, 3.0 / 300, WeightLaw::kUniform, 9.0, 11), "er sparse");
  expect_matches_oracle(
      erdos_renyi(300, 0.3, WeightLaw::kUniform, 9.0, 12), "er dense");
  expect_matches_oracle(random_geometric(300, 0.08, 13).graph, "geo sparse");
  expect_matches_oracle(random_geometric(300, 0.5, 14).graph, "geo dense");
}

TEST(HopDiameter, RejectsDisconnectedGraphs) {
  const WeightedGraph g =
      WeightedGraph::from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_THROW(g.hop_diameter(), std::invalid_argument);
  // Vertex 0 itself isolated.
  EXPECT_THROW(WeightedGraph::from_edges(3, {{1, 2, 1.0}}).hop_diameter(),
               std::invalid_argument);
}

}  // namespace
}  // namespace lightnet
