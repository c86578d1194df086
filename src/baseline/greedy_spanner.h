// The greedy (2k-1)-spanner [ADD+93] — sequential baseline.
//
// Scans edges by increasing weight and keeps an edge iff the spanner built
// so far has no path within stretch t = (2k-1)·(1+ε). [FS16] shows this is
// existentially optimal, and [CW18] that it achieves lightness O(n^{1/k}),
// so it is the quality bar the distributed Theorem 2 construction is
// benchmarked against.
//
// Each edge query is a bidirectional Dijkstra over the spanner kept so far,
// from both endpoints toward each other, expanding the smaller heap and
// pruned at the bound; it stops as soon as a meeting path fits the bound, so
// a covered edge costs a few small balls rather than one ball of radius
// t·w(e). The adjacency carries weights inline and all search state is
// allocated once per call, so a call costs O(n + m) memory plus the
// searches. Decisions equal those of a plain forward Dijkstra from e.u,
// whose path sums are added one edge at a time: a meeting sum within a
// relative 1e-9 of the bound, where the two directions' sums could round
// to the other side of it, is settled by that forward search itself.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace lightnet {

// stretch parameter t ≥ 1 (use (2k-1)(1+ε) for the paper's comparison).
std::vector<EdgeId> greedy_spanner(const WeightedGraph& g, double t);

}  // namespace lightnet
