// Greedy sequential (α, β)-net — the "inherently sequential" baseline the
// paper contrasts Theorem 3 against (§1.3).
#pragma once

#include <vector>

#include "graph/graph.h"

namespace lightnet {

// Scans vertices in id order; v joins the net iff no current net point is
// within distance `beta`. Produces a (beta, beta)-net. Each vertex costs one
// Dijkstra from v, pruned at beta, that stops at the first net point it
// reaches, over search state allocated once per call; its sums are the
// plain bounded Dijkstra's, so a distance of exactly beta still blocks.
std::vector<VertexId> greedy_net(const WeightedGraph& g, double beta);

}  // namespace lightnet
