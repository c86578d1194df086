// Reference computations for the benchmark's output checks.
//
// Every check here is computed from the input graph's edge list with the
// benchmark's own Dijkstra, BFS, Kruskal and union-find; nothing calls into
// lightnet's algorithms or reads a construction's bound_* diagnostics. The
// bounds a check applies are derived from the run's parameters by the
// caller.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Compressed adjacency over a vertex set [0, n) and a chosen subset of the
// parent graph's edges.
struct Adjacency {
  std::vector<int> offset;                 // size n+1
  std::vector<int> target;                 // size 2m
  std::vector<double> weight;              // size 2m
  int num_vertices() const { return static_cast<int>(offset.size()) - 1; }
};

Adjacency adjacency_of(const lightnet::WeightedGraph& g);
Adjacency adjacency_of(const lightnet::WeightedGraph& g,
                       const std::vector<lightnet::EdgeId>& edges);

// Weighted single-source distances; vertices farther than `bound` stay at
// infinity.
std::vector<double> dijkstra(const Adjacency& a, int source,
                             double bound = kInf);
// Weighted distance to the nearest of `sources`.
std::vector<double> multi_dijkstra(const Adjacency& a,
                                   const std::vector<int>& sources);
// Hop distances; -1 when unreachable.
std::vector<int> bfs_hops(const Adjacency& a, int source);

class UnionFind {
 public:
  explicit UnionFind(int n);
  int find(int x);
  bool unite(int a, int b);  // false when already joined

 private:
  std::vector<int> parent_;
  std::vector<int> rank_;
};

// Minimum spanning tree weight by Kruskal.
double mst_weight(const lightnet::WeightedGraph& g);

// Each check returns an empty string when the output holds, otherwise a
// one-line description of the first violation.

struct TreeBounds {
  double root_stretch = kInf;  // max over v of d_T(root,v) / d_G(root,v)
  double lightness = kInf;     // w(T) / w(MST)
  bool hop_exact = false;      // depth_T(v) must equal the hop distance
};
std::string check_tree(const lightnet::WeightedGraph& g, const Adjacency& ga,
                       const std::vector<lightnet::EdgeId>& edges, int root,
                       double mst, const TreeBounds& bounds);

// Sampled stretch of a spanning subgraph: weighted (or, with `hops`, hop)
// distances from each of `sources` in H against G.
std::string check_spanner(const lightnet::WeightedGraph& g,
                          const Adjacency& ga,
                          const std::vector<lightnet::EdgeId>& edges,
                          const std::vector<int>& sources, double stretch,
                          bool hops);

// Every vertex within `cover` of the net; net points pairwise at least
// `separation` apart.
std::string check_net(const Adjacency& ga,
                      const std::vector<lightnet::VertexId>& net, double cover,
                      double separation);

// Total weight of an edge subset.
double edge_weight(const lightnet::WeightedGraph& g,
                   const std::vector<lightnet::EdgeId>& edges);

// The net radius rule of the construction registry (four average MST edges,
// at least half the lightest edge), from the benchmark's own MST weight.
double net_radius(const lightnet::WeightedGraph& g, double mst);

// Order-sensitive FNV-1a digest of an artifact's output ids, for comparing
// repeated and multi-threaded runs against the first serial one.
std::uint64_t digest(const std::vector<int>& ids, std::uint64_t h = 0);

}  // namespace perfbench
