#include "baseline/greedy_spanner.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "graph/shortest_paths.h"
#include "support/assert.h"

namespace lightnet {

namespace {

// Relative width of the band around the bound inside which the two search
// directions' sums may round differently from the reference forward sums.
constexpr double kBand = 1e-9;

struct Arc {
  Weight w;
  VertexId to;
};

struct HeapEntry {
  Weight dist;
  VertexId v;
  bool operator>(const HeapEntry& o) const { return dist > o.dist; }
};

using MinHeap = std::vector<HeapEntry>;

void heap_push(MinHeap& h, Weight d, VertexId v) {
  h.push_back({d, v});
  std::push_heap(h.begin(), h.end(), std::greater<HeapEntry>{});
}

HeapEntry heap_pop(MinHeap& h) {
  std::pop_heap(h.begin(), h.end(), std::greater<HeapEntry>{});
  const HeapEntry top = h.back();
  h.pop_back();
  return top;
}

// The spanner built so far, as a weight-inline adjacency that grows as the
// greedy scan keeps edges, plus search scratch allocated once per call. Each
// vertex's arcs live in the slice of g's CSR it owns, so adding an edge never
// reallocates.
class GrowingSpanner {
 public:
  explicit GrowingSpanner(const WeightedGraph& g)
      : offset_(static_cast<size_t>(g.num_vertices()) + 1, 0),
        count_(static_cast<size_t>(g.num_vertices()), 0),
        arcs_(2 * static_cast<size_t>(g.num_edges())),
        dist_f_(static_cast<size_t>(g.num_vertices()), kInfiniteDistance),
        dist_b_(static_cast<size_t>(g.num_vertices()), kInfiniteDistance) {
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      offset_[static_cast<size_t>(v) + 1] =
          offset_[static_cast<size_t>(v)] + g.degree(v);
  }

  void add(const Edge& e) {
    push_arc(e.u, {e.w, e.v});
    push_arc(e.v, {e.w, e.u});
  }

  // Whether the spanner has a u-v path whose forward sum from u, added one
  // edge at a time as Dijkstra does, is at most `bound`.
  bool within(VertexId u, VertexId v, Weight bound) {
    const Weight lo = bound * (1.0 - kBand);
    const Weight hi = bound * (1.0 + kBand);
    const Weight mu = meeting_distance(u, v, lo, hi);
    reset();
    if (mu <= lo) return true;
    if (mu > hi) return false;
    const bool covered = forward_within(u, v, bound);
    reset();
    return covered;
  }

 private:
  void push_arc(VertexId from, Arc a) {
    const size_t i = static_cast<size_t>(from);
    arcs_[static_cast<size_t>(offset_[i] + count_[i]++)] = a;
  }

  std::span<const Arc> arcs(VertexId v) const {
    return std::span<const Arc>(arcs_).subspan(
        static_cast<size_t>(offset_[static_cast<size_t>(v)]),
        static_cast<size_t>(count_[static_cast<size_t>(v)]));
  }

  void label(std::vector<Weight>& dist, VertexId v, Weight d) {
    if (dist_f_[static_cast<size_t>(v)] == kInfiniteDistance &&
        dist_b_[static_cast<size_t>(v)] == kInfiniteDistance)
      touched_.push_back(v);
    dist[static_cast<size_t>(v)] = d;
  }

  // Pops superseded entries; returns the live top distance or infinity.
  static Weight live_top(MinHeap& h, const std::vector<Weight>& dist) {
    while (!h.empty() &&
           h.front().dist > dist[static_cast<size_t>(h.front().v)])
      heap_pop(h);
    return h.empty() ? kInfiniteDistance : h.front().dist;
  }

  // Bidirectional Dijkstra from u (forward) and v (backward), pruned at hi.
  // Returns mu, the best meeting sum found. It stops as soon as mu <= lo;
  // otherwise it runs until no undiscovered path can be shorter than mu
  // or than hi, so a returned mu > hi proves every u-v path is longer.
  Weight meeting_distance(VertexId u, VertexId v, Weight lo, Weight hi) {
    Weight mu = kInfiniteDistance;
    label(dist_f_, u, 0.0);
    label(dist_b_, v, 0.0);
    heap_push(heap_f_, 0.0, u);
    heap_push(heap_b_, 0.0, v);
    while (true) {
      const Weight top_f = live_top(heap_f_, dist_f_);
      const Weight top_b = live_top(heap_b_, dist_b_);
      if (top_f + top_b >= mu || top_f + top_b > hi) return mu;
      const bool forward = heap_f_.size() <= heap_b_.size();
      MinHeap& heap = forward ? heap_f_ : heap_b_;
      std::vector<Weight>& dist = forward ? dist_f_ : dist_b_;
      const std::vector<Weight>& other = forward ? dist_b_ : dist_f_;
      const HeapEntry top = heap_pop(heap);
      for (const Arc& a : arcs(top.v)) {
        const Weight nd = top.dist + a.w;
        if (nd > hi || nd >= dist[static_cast<size_t>(a.to)]) continue;
        label(dist, a.to, nd);
        heap_push(heap, nd, a.to);
        const Weight meet = nd + other[static_cast<size_t>(a.to)];
        if (meet < mu) {
          mu = meet;
          if (mu <= lo) return mu;
        }
      }
    }
  }

  // The reference decision: Dijkstra from u pruned at `bound`, with the
  // same d + w sums as a plain bounded Dijkstra. A label on v is final
  // enough: its distance can only shrink.
  bool forward_within(VertexId u, VertexId v, Weight bound) {
    label(dist_f_, u, 0.0);
    heap_push(heap_f_, 0.0, u);
    while (!heap_f_.empty()) {
      const HeapEntry top = heap_pop(heap_f_);
      if (top.dist > dist_f_[static_cast<size_t>(top.v)]) continue;
      for (const Arc& a : arcs(top.v)) {
        const Weight nd = top.dist + a.w;
        if (nd > bound || nd >= dist_f_[static_cast<size_t>(a.to)]) continue;
        if (a.to == v) return true;
        label(dist_f_, a.to, nd);
        heap_push(heap_f_, nd, a.to);
      }
    }
    return false;
  }

  void reset() {
    for (VertexId v : touched_) {
      dist_f_[static_cast<size_t>(v)] = kInfiniteDistance;
      dist_b_[static_cast<size_t>(v)] = kInfiniteDistance;
    }
    touched_.clear();
    heap_f_.clear();
    heap_b_.clear();
  }

  std::vector<int> offset_;
  std::vector<int> count_;
  std::vector<Arc> arcs_;
  std::vector<Weight> dist_f_;
  std::vector<Weight> dist_b_;
  std::vector<VertexId> touched_;
  MinHeap heap_f_;
  MinHeap heap_b_;
};

}  // namespace

std::vector<EdgeId> greedy_spanner(const WeightedGraph& g, double t) {
  LN_REQUIRE(t >= 1.0, "stretch must be at least 1");
  std::vector<EdgeId> order(static_cast<size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](EdgeId a, EdgeId b) {
    if (g.edge(a).w != g.edge(b).w) return g.edge(a).w < g.edge(b).w;
    return a < b;
  });
  GrowingSpanner h(g);
  std::vector<EdgeId> spanner;
  for (EdgeId id : order) {
    const Edge& e = g.edge(id);
    if (!h.within(e.u, e.v, t * e.w)) {
      spanner.push_back(id);
      h.add(e);
    }
  }
  std::sort(spanner.begin(), spanner.end());
  return spanner;
}

}  // namespace lightnet
