#include "baseline/kry_slt.h"

#include <algorithm>

#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "support/assert.h"

namespace lightnet {

KrySltResult kry_slt(const WeightedGraph& g, VertexId rt, double alpha) {
  LN_REQUIRE(alpha > 1.0, "alpha must exceed 1");
  LN_REQUIRE(rt >= 0 && rt < g.num_vertices(), "root out of range");
  const RootedTree mst = mst_tree(g, rt);
  const ShortestPathTree spt = dijkstra(g, rt);

  // DFS over the MST carrying a tentative tree-distance d; grafting resets
  // it to the true shortest-path distance.
  std::vector<Weight> d(static_cast<size_t>(g.num_vertices()),
                        kInfiniteDistance);
  d[static_cast<size_t>(rt)] = 0.0;
  std::vector<char> grafted(static_cast<size_t>(g.num_vertices()), 0);

  // Iterative DFS in child-id order, mirroring the Euler tour: moving along
  // an MST edge in either direction relaxes the estimate.
  struct Frame {
    VertexId v;
    size_t next_child = 0;
  };
  std::vector<Frame> stack{{rt, 0}};
  size_t graft_count = 0;
  while (!stack.empty()) {
    Frame& top = stack.back();
    const VertexId v = top.v;
    if (top.next_child == 0) {
      // First visit: test the graft condition.
      if (d[static_cast<size_t>(v)] >
          alpha * spt.dist[static_cast<size_t>(v)]) {
        d[static_cast<size_t>(v)] = spt.dist[static_cast<size_t>(v)];
        grafted[static_cast<size_t>(v)] = 1;
        ++graft_count;
      }
    }
    const auto& ch = mst.children[static_cast<size_t>(v)];
    if (top.next_child < ch.size()) {
      const VertexId z = ch[top.next_child++];
      const Weight w = mst.parent_weight[static_cast<size_t>(z)];
      d[static_cast<size_t>(z)] =
          std::min(d[static_cast<size_t>(z)], d[static_cast<size_t>(v)] + w);
      stack.push_back({z, 0});
    } else {
      stack.pop_back();
      if (!stack.empty()) {
        const VertexId p = stack.back().v;
        const Weight w = mst.parent_weight[static_cast<size_t>(v)];
        d[static_cast<size_t>(p)] = std::min(
            d[static_cast<size_t>(p)], d[static_cast<size_t>(v)] + w);
      }
    }
  }

  // H = MST ∪ grafted shortest paths; final tree = SPT of H.
  std::vector<EdgeId> h_edges = mst.edge_ids();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (grafted[static_cast<size_t>(v)]) {
      const std::vector<EdgeId> path = spt.path_edges_to(v);
      h_edges.insert(h_edges.end(), path.begin(), path.end());
    }
  h_edges = dedupe_edge_ids(h_edges, g.num_edges());

  const WeightedGraph h = g.edge_subgraph(h_edges);
  const ShortestPathTree final_spt = dijkstra(h, rt);
  KrySltResult result;
  result.grafted_paths = graft_count;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == rt) continue;
    const EdgeId sub_edge = final_spt.parent_edge[static_cast<size_t>(v)];
    LN_ASSERT(sub_edge != kNoEdge);
    result.tree_edges.push_back(h_edges[static_cast<size_t>(sub_edge)]);
  }
  std::sort(result.tree_edges.begin(), result.tree_edges.end());
  return result;
}

}  // namespace lightnet
