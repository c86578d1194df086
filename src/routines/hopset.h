// Path-reporting hopsets — the [EN16] substitute (§7.1).
//
// A (β, ε)-hopset F is a set of virtual edges such that β-hop-bounded
// distances in G ∪ F approximate true distances. The paper uses hopsets for
// one purpose: to keep the Δ-bounded multi-source explorations of §7 within
// few Bellman-Ford iterations, with every hopset edge "path-reporting" (the
// underlying G-path is known so it can be added to the spanner).
//
// Substitution: instead of the superclustering construction of [EN16], we
// sample ~(2 ln n / β)·n hub vertices (so w.h.p. every shortest path with β
// hops contains a hub), and connect hubs at ≤ β hops by a virtual edge of
// exactly their β-hop-bounded distance, remembering the underlying path.
// This yields ε = 0 hopset quality with hopbound O(β); the interface
// (virtual edges + reported paths + bounded-hop exploration) is identical.
// The build cost is charged per [EN16]'s O((√n + D)·β²) bound and recorded
// as such in the ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/stats.h"
#include "graph/graph.h"

namespace lightnet {

struct HopsetEdge {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  Weight length = 0.0;          // = d^(β)_G(u, v)
  std::vector<EdgeId> path;     // G-edges realizing `length`, u -> v order
};

struct Hopset {
  int hop_limit = 0;            // the β it was built for
  std::vector<VertexId> hubs;
  std::vector<HopsetEdge> edges;
  std::vector<char> is_hub;     // indicator per vertex
};

struct HopsetResult {
  Hopset hopset;
  congest::CostStats cost;      // charged per [EN16]
  int hop_diameter = 0;         // D of g, as used in the charge
};

HopsetResult build_hopset(const WeightedGraph& g, int hop_limit,
                          std::uint64_t seed);

// β'-hop-bounded single-source distances in G ∪ F (sequential reference for
// tests demonstrating the hopset property).
std::vector<Weight> hop_bounded_distances_with_hopset(const WeightedGraph& g,
                                                      const Hopset& hopset,
                                                      VertexId source,
                                                      int hop_budget);

}  // namespace lightnet
