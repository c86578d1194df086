#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <utility>

namespace perfbench {

using lightnet::Edge;
using lightnet::EdgeId;
using lightnet::VertexId;
using lightnet::WeightedGraph;

namespace {

// Relative slack for floating-point comparisons against a bound.
constexpr double kSlack = 1e-9;

Adjacency build(int n, const std::vector<Edge>& edges) {
  Adjacency a;
  a.offset.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++a.offset[static_cast<size_t>(e.u) + 1];
    ++a.offset[static_cast<size_t>(e.v) + 1];
  }
  for (int v = 0; v < n; ++v)
    a.offset[static_cast<size_t>(v) + 1] += a.offset[static_cast<size_t>(v)];
  a.target.resize(2 * edges.size());
  a.weight.resize(2 * edges.size());
  std::vector<int> fill(a.offset.begin(), a.offset.end() - 1);
  for (const Edge& e : edges) {
    const size_t iu = static_cast<size_t>(fill[static_cast<size_t>(e.u)]++);
    a.target[iu] = e.v;
    a.weight[iu] = e.w;
    const size_t iv = static_cast<size_t>(fill[static_cast<size_t>(e.v)]++);
    a.target[iv] = e.u;
    a.weight[iv] = e.w;
  }
  return a;
}

std::vector<double> run_dijkstra(const Adjacency& a,
                                 const std::vector<int>& sources,
                                 double bound) {
  std::vector<double> dist(static_cast<size_t>(a.num_vertices()), kInf);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (const int s : sources) {
    dist[static_cast<size_t>(s)] = 0.0;
    heap.push({0.0, s});
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<size_t>(v)]) continue;
    for (int i = a.offset[static_cast<size_t>(v)];
         i < a.offset[static_cast<size_t>(v) + 1]; ++i) {
      const double nd = d + a.weight[static_cast<size_t>(i)];
      const size_t u = static_cast<size_t>(a.target[static_cast<size_t>(i)]);
      if (nd < dist[u] && nd <= bound) {
        dist[u] = nd;
        heap.push({nd, static_cast<int>(u)});
      }
    }
  }
  return dist;
}

std::string describe(const char* what, double got, double bound) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.6g exceeds bound %.6g", what, got,
                bound);
  return buf;
}

// Ids in range and pairwise distinct.
template <typename Id>
std::string check_ids(const std::vector<Id>& ids, int limit,
                      const char* what) {
  std::vector<char> seen(static_cast<size_t>(limit), 0);
  for (const Id id : ids) {
    if (id < 0 || id >= limit) return std::string(what) + " id out of range";
    if (seen[static_cast<size_t>(id)]++)
      return std::string("duplicate ") + what + " id";
  }
  return "";
}

}  // namespace

Adjacency adjacency_of(const WeightedGraph& g) {
  return build(g.num_vertices(),
               std::vector<Edge>(g.edges().begin(), g.edges().end()));
}

Adjacency adjacency_of(const WeightedGraph& g,
                       const std::vector<EdgeId>& edges) {
  std::vector<Edge> chosen;
  chosen.reserve(edges.size());
  for (const EdgeId e : edges) chosen.push_back(g.edge(e));
  return build(g.num_vertices(), chosen);
}

std::vector<double> dijkstra(const Adjacency& a, int source, double bound) {
  return run_dijkstra(a, {source}, bound);
}

std::vector<double> multi_dijkstra(const Adjacency& a,
                                   const std::vector<int>& sources) {
  return run_dijkstra(a, sources, kInf);
}

std::vector<int> bfs_hops(const Adjacency& a, int source) {
  std::vector<int> hops(static_cast<size_t>(a.num_vertices()), -1);
  std::vector<int> queue{source};
  hops[static_cast<size_t>(source)] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    for (int i = a.offset[static_cast<size_t>(v)];
         i < a.offset[static_cast<size_t>(v) + 1]; ++i) {
      const size_t u = static_cast<size_t>(a.target[static_cast<size_t>(i)]);
      if (hops[u] < 0) {
        hops[u] = hops[static_cast<size_t>(v)] + 1;
        queue.push_back(static_cast<int>(u));
      }
    }
  }
  return hops;
}

UnionFind::UnionFind(int n)
    : parent_(static_cast<size_t>(n)), rank_(static_cast<size_t>(n), 0) {
  for (int i = 0; i < n; ++i) parent_[static_cast<size_t>(i)] = i;
}

int UnionFind::find(int x) {
  while (parent_[static_cast<size_t>(x)] != x) {
    int& p = parent_[static_cast<size_t>(x)];
    p = parent_[static_cast<size_t>(p)];
    x = p;
  }
  return x;
}

bool UnionFind::unite(int a, int b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (rank_[static_cast<size_t>(a)] < rank_[static_cast<size_t>(b)])
    std::swap(a, b);
  parent_[static_cast<size_t>(b)] = a;
  if (rank_[static_cast<size_t>(a)] == rank_[static_cast<size_t>(b)])
    ++rank_[static_cast<size_t>(a)];
  return true;
}

double mst_weight(const WeightedGraph& g) {
  std::vector<EdgeId> order(static_cast<size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) order[static_cast<size_t>(e)] = e;
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.edge(a).w < g.edge(b).w;
  });
  UnionFind uf(g.num_vertices());
  double total = 0.0;
  for (const EdgeId e : order)
    if (uf.unite(g.edge(e).u, g.edge(e).v)) total += g.edge(e).w;
  return total;
}

double edge_weight(const WeightedGraph& g, const std::vector<EdgeId>& edges) {
  double total = 0.0;
  for (const EdgeId e : edges) total += g.edge(e).w;
  return total;
}

double net_radius(const WeightedGraph& g, double mst) {
  double min_w = kInf;
  for (const Edge& e : g.edges()) min_w = std::min(min_w, e.w);
  return std::max(4.0 * mst / g.num_vertices(), min_w * 0.5);
}

std::string check_tree(const WeightedGraph& g, const Adjacency& ga,
                       const std::vector<EdgeId>& edges, int root, double mst,
                       const TreeBounds& bounds) {
  const int n = g.num_vertices();
  if (std::string err = check_ids(edges, g.num_edges(), "edge"); !err.empty())
    return err;
  if (static_cast<int>(edges.size()) != n - 1)
    return "tree has " + std::to_string(edges.size()) + " edges, want " +
           std::to_string(n - 1);
  UnionFind uf(n);
  for (const EdgeId e : edges)
    if (!uf.unite(g.edge(e).u, g.edge(e).v)) return "tree has a cycle";

  const Adjacency ta = adjacency_of(g, edges);
  if (bounds.hop_exact) {
    const std::vector<int> want = bfs_hops(ga, root);
    const std::vector<int> got = bfs_hops(ta, root);
    for (int v = 0; v < n; ++v)
      if (want[static_cast<size_t>(v)] != got[static_cast<size_t>(v)])
        return "tree depth of vertex " + std::to_string(v) +
               " differs from its hop distance";
  }
  if (std::isfinite(bounds.root_stretch)) {
    const std::vector<double> dg = dijkstra(ga, root);
    const std::vector<double> dt = dijkstra(ta, root);
    double worst = 1.0;
    for (int v = 0; v < n; ++v)
      if (v != root)
        worst = std::max(worst, dt[static_cast<size_t>(v)] /
                                    dg[static_cast<size_t>(v)]);
    if (worst > bounds.root_stretch * (1.0 + kSlack))
      return describe("root stretch", worst, bounds.root_stretch);
  }
  const double lightness = edge_weight(g, edges) / mst;
  if (lightness > bounds.lightness * (1.0 + kSlack))
    return describe("lightness", lightness, bounds.lightness);
  return "";
}

std::string check_spanner(const WeightedGraph& g, const Adjacency& ga,
                          const std::vector<EdgeId>& edges,
                          const std::vector<int>& sources, double stretch,
                          bool hops) {
  if (std::string err = check_ids(edges, g.num_edges(), "edge"); !err.empty())
    return err;
  const Adjacency ha = adjacency_of(g, edges);
  double worst = 1.0;
  for (const int s : sources) {
    if (hops) {
      const std::vector<int> dg = bfs_hops(ga, s);
      const std::vector<int> dh = bfs_hops(ha, s);
      for (size_t v = 0; v < dg.size(); ++v) {
        if (dh[v] < 0) return "spanner disconnects a vertex";
        if (dg[v] > 0)
          worst = std::max(worst, static_cast<double>(dh[v]) / dg[v]);
      }
    } else {
      const std::vector<double> dg = dijkstra(ga, s);
      const std::vector<double> dh = dijkstra(ha, s);
      for (size_t v = 0; v < dg.size(); ++v) {
        if (!std::isfinite(dh[v])) return "spanner disconnects a vertex";
        if (dg[v] > 0.0) worst = std::max(worst, dh[v] / dg[v]);
      }
    }
  }
  if (worst > stretch * (1.0 + kSlack))
    return describe(hops ? "hop stretch" : "stretch", worst, stretch);
  return "";
}

std::string check_net(const Adjacency& ga, const std::vector<VertexId>& net,
                      double cover, double separation) {
  const int n = ga.num_vertices();
  if (std::string err = check_ids(net, n, "net vertex"); !err.empty())
    return err;
  if (net.empty()) return "empty net";
  const std::vector<int> sources(net.begin(), net.end());
  const std::vector<double> d = multi_dijkstra(ga, sources);
  const double far = *std::max_element(d.begin(), d.end());
  if (far > cover * (1.0 + kSlack)) return describe("net cover", far, cover);
  std::vector<char> in_net(static_cast<size_t>(n), 0);
  for (const int p : sources) in_net[static_cast<size_t>(p)] = 1;
  const double limit = separation * (1.0 - kSlack);
  for (const int p : sources) {
    const std::vector<double> ball = dijkstra(ga, p, limit);
    for (const int q : sources)
      if (q != p && ball[static_cast<size_t>(q)] < limit)
        return "net points " + std::to_string(p) + " and " +
               std::to_string(q) + " closer than the separation";
  }
  return "";
}

std::uint64_t digest(const std::vector<int>& ids, std::uint64_t h) {
  if (h == 0) h = 0xcbf29ce484222325ULL;
  for (const int id : ids) {
    std::uint32_t x = static_cast<std::uint32_t>(id);
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace perfbench
