#include "routines/hopset.h"

#include <algorithm>
#include <cmath>

#include "graph/shortest_paths.h"
#include "support/assert.h"
#include "support/rng.h"

namespace lightnet {

namespace {

// Sequential hop-bounded Bellman-Ford from `source`, returning distances
// and parent edges for paths of at most `hop_limit` edges.
struct HopBoundedSssp {
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
};

HopBoundedSssp hop_bounded_sssp(const WeightedGraph& g, VertexId source,
                                int hop_limit) {
  const size_t n = static_cast<size_t>(g.num_vertices());
  HopBoundedSssp r;
  r.dist.assign(n, kInfiniteDistance);
  r.parent.assign(n, kNoVertex);
  r.parent_edge.assign(n, kNoEdge);
  r.dist[static_cast<size_t>(source)] = 0.0;
  std::vector<VertexId> frontier{source};
  for (int hop = 0; hop < hop_limit && !frontier.empty(); ++hop) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      const Weight dv = r.dist[static_cast<size_t>(v)];
      for (const Incidence& inc : g.incident(v)) {
        const Weight cand = dv + g.edge(inc.edge).w;
        if (cand < r.dist[static_cast<size_t>(inc.neighbor)]) {
          r.dist[static_cast<size_t>(inc.neighbor)] = cand;
          r.parent[static_cast<size_t>(inc.neighbor)] = v;
          r.parent_edge[static_cast<size_t>(inc.neighbor)] = inc.edge;
          next.push_back(inc.neighbor);
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
  }
  return r;
}

}  // namespace

HopsetResult build_hopset(const WeightedGraph& g, int hop_limit,
                          std::uint64_t seed) {
  LN_REQUIRE(hop_limit >= 1, "hop limit must be positive");
  const int n = g.num_vertices();
  HopsetResult result;
  result.hopset.hop_limit = hop_limit;
  result.hopset.is_hub.assign(static_cast<size_t>(n), 0);

  // Hub sampling: probability ~ ln n / β so that w.h.p. every Θ(β)-hop
  // shortest path contains a hub (the 3β exploration budget downstream
  // absorbs the constant).
  Rng rng(seed ^ 0x486f705365744c4eULL);
  const double p =
      std::min(1.0, std::log(std::max(2, n)) / hop_limit);
  for (VertexId v = 0; v < n; ++v) {
    if (rng.next_bernoulli(p)) {
      result.hopset.hubs.push_back(v);
      result.hopset.is_hub[static_cast<size_t>(v)] = 1;
    }
  }
  // Degenerate safety: always at least one hub so the structure is usable.
  if (result.hopset.hubs.empty() && n > 0) {
    result.hopset.hubs.push_back(0);
    result.hopset.is_hub[0] = 1;
  }

  // Hub-to-hub virtual edges with reported paths.
  for (VertexId hub : result.hopset.hubs) {
    const HopBoundedSssp sssp = hop_bounded_sssp(g, hub, hop_limit);
    for (VertexId other : result.hopset.hubs) {
      if (other <= hub) continue;  // one direction; edges are symmetric
      if (sssp.dist[static_cast<size_t>(other)] == kInfiniteDistance)
        continue;
      HopsetEdge edge;
      edge.u = hub;
      edge.v = other;
      edge.length = sssp.dist[static_cast<size_t>(other)];
      for (VertexId cur = other;
           sssp.parent[static_cast<size_t>(cur)] != kNoVertex;
           cur = sssp.parent[static_cast<size_t>(cur)])
        edge.path.push_back(sssp.parent_edge[static_cast<size_t>(cur)]);
      std::reverse(edge.path.begin(), edge.path.end());
      result.hopset.edges.push_back(std::move(edge));
    }
  }

  // Cost charged per [EN16]: O((√n + D)·β²) rounds for a path-reporting
  // hopset of this hopbound (the simulation computes the same object).
  const std::uint64_t sqrt_n =
      static_cast<std::uint64_t>(std::ceil(std::sqrt(std::max(1, n))));
  result.hop_diameter = g.hop_diameter();
  congest::CostStats c;
  c.rounds = (sqrt_n + static_cast<std::uint64_t>(result.hop_diameter)) *
             static_cast<std::uint64_t>(hop_limit);
  c.messages = static_cast<std::uint64_t>(g.num_edges()) *
               static_cast<std::uint64_t>(hop_limit);
  c.words = c.messages * 2;
  c.max_edge_load = 1;
  result.cost = c;
  return result;
}

std::vector<Weight> hop_bounded_distances_with_hopset(const WeightedGraph& g,
                                                      const Hopset& hopset,
                                                      VertexId source,
                                                      int hop_budget) {
  const size_t n = static_cast<size_t>(g.num_vertices());
  std::vector<Weight> dist(n, kInfiniteDistance);
  dist[static_cast<size_t>(source)] = 0.0;
  for (int hop = 0; hop < hop_budget; ++hop) {
    std::vector<Weight> next = dist;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.edge(e);
      next[static_cast<size_t>(ed.v)] =
          std::min(next[static_cast<size_t>(ed.v)],
                   dist[static_cast<size_t>(ed.u)] + ed.w);
      next[static_cast<size_t>(ed.u)] =
          std::min(next[static_cast<size_t>(ed.u)],
                   dist[static_cast<size_t>(ed.v)] + ed.w);
    }
    for (const HopsetEdge& he : hopset.edges) {
      next[static_cast<size_t>(he.v)] = std::min(
          next[static_cast<size_t>(he.v)],
          dist[static_cast<size_t>(he.u)] + he.length);
      next[static_cast<size_t>(he.u)] = std::min(
          next[static_cast<size_t>(he.u)],
          dist[static_cast<size_t>(he.v)] + he.length);
    }
    dist = std::move(next);
  }
  return dist;
}

}  // namespace lightnet
