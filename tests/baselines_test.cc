#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <queue>

#include "api/registry.h"
#include "api/scenario.h"
#include "baseline/greedy_spanner.h"
#include "baseline/kry_slt.h"
#include "baseline/sequential_net.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/shortest_paths.h"
#include "tests/test_util.h"

namespace lightnet {
namespace {

class GreedySpannerTTest : public ::testing::TestWithParam<double> {};

TEST_P(GreedySpannerTTest, StretchGuarantee) {
  const double t = GetParam();
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const auto spanner = greedy_spanner(g, t);
    EXPECT_LE(max_edge_stretch(g, spanner), t + 1e-6) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Stretches, GreedySpannerTTest,
                         ::testing::Values(1.0, 3.0, 5.0, 7.0));

TEST(GreedySpanner, StretchOneKeepsEverything) {
  const WeightedGraph g = complete_euclidean(15, 3).graph;
  const auto spanner = greedy_spanner(g, 1.0);
  EXPECT_EQ(static_cast<int>(spanner.size()), g.num_edges());
}

TEST(GreedySpanner, SparsifiesCompleteGraphs) {
  const WeightedGraph g = complete_euclidean(40, 4).graph;
  const auto spanner = greedy_spanner(g, 3.0);
  // Girth bound: a 3-spanner from the greedy algorithm has O(n^{1.5})
  // edges; K_40 has 780.
  EXPECT_LT(spanner.size(), 400u);
}

TEST(GreedySpanner, LightnessBeatsNaive) {
  const WeightedGraph g = ring_with_chords(60, 30, 25.0, 5);
  const auto spanner = greedy_spanner(g, 5.0);
  EXPECT_LE(lightness(g, spanner), 3.0);
}

class KrySltAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(KrySltAlphaTest, TradeoffGuarantees) {
  const double alpha = GetParam();
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const KrySltResult r = kry_slt(g, 0, alpha);
    ASSERT_EQ(static_cast<int>(r.tree_edges.size()), g.num_vertices() - 1)
        << name;
    EXPECT_LE(root_stretch(g, r.tree_edges, 0), alpha + 1e-6)
        << name << " alpha=" << alpha;
    // [KRY95]: lightness ≤ 1 + 2/(α-1).
    EXPECT_LE(lightness(g, r.tree_edges),
              1.0 + 2.0 / (alpha - 1.0) + 1e-6)
        << name << " alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, KrySltAlphaTest,
                         ::testing::Values(1.2, 1.5, 2.0, 4.0, 8.0));

TEST(KrySlt, LargeAlphaReturnsNearMst) {
  const WeightedGraph g = ring_with_chords(40, 10, 12.0, 6);
  const KrySltResult r = kry_slt(g, 0, 50.0);
  EXPECT_NEAR(lightness(g, r.tree_edges), 1.0, 0.1);
  EXPECT_EQ(r.grafted_paths, 0u);
}

TEST(KrySlt, SmallAlphaGraftsAggressively) {
  const WeightedGraph g = ring_with_chords(40, 10, 12.0, 7);
  const KrySltResult tight = kry_slt(g, 0, 1.05);
  EXPECT_LE(root_stretch(g, tight.tree_edges, 0), 1.05 + 1e-6);
}

TEST(KrySlt, RejectsAlphaBelowOne) {
  const WeightedGraph g = path_graph(4, WeightLaw::kUnit, 1.0, 1);
  EXPECT_THROW(kry_slt(g, 0, 1.0), std::invalid_argument);
}

TEST(GreedyNet, CoveringAndSeparated) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    const double beta = 0.5 * g.max_edge_weight();
    const auto net = greedy_net(g, beta);
    ASSERT_FALSE(net.empty()) << name;
    const NetCheck check = check_net(g, net, beta, beta);
    EXPECT_TRUE(check.covering) << name;
    EXPECT_TRUE(check.separated) << name;
  }
}

TEST(GreedyNet, TinyBetaKeepsEveryone) {
  const WeightedGraph g = grid(4, 4, /*perturb=*/false, 1);
  const auto net = greedy_net(g, 0.5);
  EXPECT_EQ(net.size(), 16u);
}

TEST(GreedyNet, FirstVertexAlwaysJoins) {
  const WeightedGraph g = erdos_renyi(20, 0.3, WeightLaw::kUniform, 9.0, 8);
  const auto net = greedy_net(g, 3.0);
  ASSERT_FALSE(net.empty());
  EXPECT_EQ(net.front(), 0);
}

// Reference oracles: the plain per-query searches the baselines used before
// the bidirectional spanner search and the early-exit net search. The fast
// versions must return exactly what these return.
bool oracle_within_distance(const std::vector<std::vector<Incidence>>& adj,
                            const WeightedGraph& g, VertexId from,
                            VertexId to, Weight bound) {
  struct Entry {
    Weight dist;
    VertexId v;
    bool operator>(const Entry& o) const { return dist > o.dist; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  std::vector<Weight> dist(adj.size(), kInfiniteDistance);
  dist[static_cast<size_t>(from)] = 0.0;
  pq.push({0.0, from});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[static_cast<size_t>(v)]) continue;
    if (v == to) return true;
    for (const Incidence& inc : adj[static_cast<size_t>(v)]) {
      const Weight nd = d + g.edge(inc.edge).w;
      if (nd > bound) continue;
      if (nd < dist[static_cast<size_t>(inc.neighbor)]) {
        dist[static_cast<size_t>(inc.neighbor)] = nd;
        pq.push({nd, inc.neighbor});
      }
    }
  }
  return dist[static_cast<size_t>(to)] <= bound;
}

std::vector<EdgeId> oracle_greedy_spanner(const WeightedGraph& g, double t) {
  std::vector<EdgeId> order(static_cast<size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](EdgeId a, EdgeId b) {
    if (g.edge(a).w != g.edge(b).w) return g.edge(a).w < g.edge(b).w;
    return a < b;
  });
  std::vector<std::vector<Incidence>> adj(
      static_cast<size_t>(g.num_vertices()));
  std::vector<EdgeId> spanner;
  for (EdgeId id : order) {
    const Edge& e = g.edge(id);
    if (!oracle_within_distance(adj, g, e.u, e.v, t * e.w)) {
      spanner.push_back(id);
      adj[static_cast<size_t>(e.u)].push_back({id, e.v});
      adj[static_cast<size_t>(e.v)].push_back({id, e.u});
    }
  }
  std::sort(spanner.begin(), spanner.end());
  return spanner;
}

std::vector<VertexId> oracle_greedy_net(const WeightedGraph& g, double beta) {
  std::vector<VertexId> net;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const ShortestPathTree t = dijkstra_bounded(g, v, beta);
    bool blocked = false;
    for (VertexId u : net) {
      if (t.dist[static_cast<size_t>(u)] <= beta) {
        blocked = true;
        break;
      }
    }
    if (!blocked) net.push_back(v);
  }
  return net;
}

TEST(GreedySpanner, MatchesOracleOnZoo) {
  for (const auto& [name, g] : testing::small_graph_zoo())
    for (const double t : {1.0, 2.0, 3.0, 3.75, 5.0, 7.0})
      EXPECT_EQ(greedy_spanner(g, t), oracle_greedy_spanner(g, t))
          << name << " t=" << t;
}

// Inputs where many spanner paths tie the bound exactly, so the search's
// meeting sums land inside the exactness band and the forward reference
// search decides: unit grids at integer t, rings whose chords weigh an
// integer number of unit ring edges, and t=1 on a complete graph.
TEST(GreedySpanner, MatchesOracleOnTies) {
  const WeightedGraph unit_grid = grid(32, 32, /*perturb=*/false, 1);
  for (const double t : {3.0, 5.0})
    EXPECT_EQ(greedy_spanner(unit_grid, t), oracle_greedy_spanner(unit_grid, t))
        << "grid32x32 t=" << t;
  for (const std::uint64_t seed : {1, 2}) {
    const WeightedGraph ring = ring_with_chords(300, 150, 25.0, seed);
    for (const double t : {1.0, 2.0, 3.0})
      EXPECT_EQ(greedy_spanner(ring, t), oracle_greedy_spanner(ring, t))
          << "ring300 seed=" << seed << " t=" << t;
  }
  for (const std::uint64_t seed : {1, 2}) {
    const WeightedGraph complete = complete_euclidean(60, seed).graph;
    EXPECT_EQ(greedy_spanner(complete, 1.0),
              oracle_greedy_spanner(complete, 1.0))
        << "complete60 seed=" << seed;
  }
}

TEST(GreedyNet, MatchesOracle) {
  for (const auto& [name, g] : testing::small_graph_zoo())
    for (const double scale : {0.25, 0.5, 1.0, 2.0}) {
      const double beta = scale * g.max_edge_weight();
      EXPECT_EQ(greedy_net(g, beta), oracle_greedy_net(g, beta))
          << name << " beta=" << beta;
    }
  // Unit grid: many vertices sit at distance exactly beta.
  const WeightedGraph unit_grid = grid(32, 32, /*perturb=*/false, 1);
  for (const double beta : {2.0, 3.0})
    EXPECT_EQ(greedy_net(unit_grid, beta), oracle_greedy_net(unit_grid, beta))
        << "grid32x32 beta=" << beta;
}

// FNV-1a 64 over the ids' little-endian bytes, 8 per id, in output order.
template <typename Id>
std::uint64_t id_digest(const std::vector<Id>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Id id : ids) {
    const auto word = static_cast<std::uint64_t>(static_cast<std::int64_t>(id));
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Outputs at benchmark size, pinned from the plain per-query searches: the
// default scenarios (seed 1), the spanner at the registry's default
// t = 3·1.25 on n=1024 and the net at net_radius_for's radius on n=2048.
TEST(Baselines, BenchmarkSizeOutputsArePinned) {
  struct Case {
    const char* family;
    size_t spanner_edges;
    std::uint64_t spanner_digest;
    size_t net_size;
    std::uint64_t net_digest;
  };
  const Case cases[] = {
      {"er", 1372, 0x32ab66a6cc441a18ULL, 287, 0xac9d8ce6dc261e0cULL},
      {"geo", 1169, 0x506f98435514cfc3ULL, 181, 0x465bf33b5b1ee7b6ULL},
      {"ring", 1092, 0x9c6ddad83f44c545ULL, 512, 0x57556e121e6b5125ULL},
      {"grid", 1410, 0x015a43ab9e9396a9ULL, 265, 0x0d3e608abfd7f38eULL},
  };
  for (const Case& c : cases) {
    api::ScenarioSpec spec;
    spec.family = c.family;
    spec.n = 1024;
    const auto spanner = greedy_spanner(api::materialize(spec), 3.75);
    EXPECT_EQ(spanner.size(), c.spanner_edges) << c.family;
    EXPECT_EQ(id_digest(spanner), c.spanner_digest) << c.family;
    spec.n = 2048;
    const WeightedGraph g = api::materialize(spec);
    const auto net = greedy_net(g, api::net_radius_for(g, {}));
    EXPECT_EQ(net.size(), c.net_size) << c.family;
    EXPECT_EQ(id_digest(net), c.net_digest) << c.family;
  }
}

}  // namespace
}  // namespace lightnet
