#include "baseline/sequential_net.h"

#include <algorithm>
#include <functional>

#include "graph/shortest_paths.h"
#include "support/assert.h"

namespace lightnet {

namespace {

struct HeapEntry {
  Weight dist;
  VertexId v;
  bool operator>(const HeapEntry& o) const { return dist > o.dist; }
};

}  // namespace

std::vector<VertexId> greedy_net(const WeightedGraph& g, double beta) {
  LN_REQUIRE(beta > 0.0, "beta must be positive");
  const size_t n = static_cast<size_t>(g.num_vertices());
  std::vector<VertexId> net;
  std::vector<char> in_net(n, 0);
  std::vector<Weight> dist(n, kInfiniteDistance);
  std::vector<VertexId> touched;
  std::vector<HeapEntry> heap;
  const auto label = [&](VertexId v, Weight d) {
    if (dist[static_cast<size_t>(v)] == kInfiniteDistance) touched.push_back(v);
    dist[static_cast<size_t>(v)] = d;
    heap.push_back({d, v});
    std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>{});
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Bounded Dijkstra from v: v is blocked as soon as a net point gets a
    // label within beta, since its distance can only shrink from there.
    bool blocked = false;
    label(v, 0.0);
    while (!heap.empty() && !blocked) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>{});
      const HeapEntry top = heap.back();
      heap.pop_back();
      if (top.dist > dist[static_cast<size_t>(top.v)]) continue;
      for (const Incidence& inc : g.incident(top.v)) {
        const Weight nd = top.dist + g.edge(inc.edge).w;
        if (nd > beta || nd >= dist[static_cast<size_t>(inc.neighbor)])
          continue;
        if (in_net[static_cast<size_t>(inc.neighbor)]) {
          blocked = true;
          break;
        }
        label(inc.neighbor, nd);
      }
    }
    for (VertexId u : touched) dist[static_cast<size_t>(u)] = kInfiniteDistance;
    touched.clear();
    heap.clear();
    if (!blocked) {
      net.push_back(v);
      in_net[static_cast<size_t>(v)] = 1;
    }
  }
  return net;
}

}  // namespace lightnet
