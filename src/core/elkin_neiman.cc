#include "core/elkin_neiman.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/assert.h"

namespace lightnet {

ClusterGraph ClusterGraph::from_cluster_edges(
    int num_nodes,
    const std::vector<std::pair<std::pair<int, int>, EdgeId>>& cluster_edges) {
  ClusterGraph cg;
  cg.num_nodes = num_nodes;
  cg.adj.assign(static_cast<size_t>(num_nodes), {});
  std::map<std::pair<int, int>, EdgeId> unique;
  for (const auto& [pair, edge] : cluster_edges) {
    auto [a, b] = pair;
    LN_REQUIRE(a >= 0 && a < num_nodes && b >= 0 && b < num_nodes,
               "cluster id out of range");
    LN_REQUIRE(a != b, "self-loop in cluster graph");
    const auto key = std::minmax(a, b);
    auto [it, inserted] = unique.try_emplace({key.first, key.second}, edge);
    (void)it;
    (void)inserted;  // first representative wins; callers pre-pick if needed
  }
  for (const auto& [key, edge] : unique) {
    cg.adj[static_cast<size_t>(key.first)].push_back({key.second, edge});
    cg.adj[static_cast<size_t>(key.second)].push_back({key.first, edge});
  }
  return cg;
}

ElkinNeimanResult elkin_neiman_spanner(const ClusterGraph& cg, int k,
                                       Rng& rng) {
  LN_REQUIRE(k >= 1, "k must be at least 1");
  const int n = cg.num_nodes;
  ElkinNeimanResult result;
  if (n == 0) return result;

  // r(x) ~ Exp(ln n / k) conditioned on r(x) < k (per-vertex resampling is
  // exactly the conditioned distribution, samples being independent).
  const double lambda =
      std::log(static_cast<double>(std::max(n, 2))) / static_cast<double>(k);
  std::vector<double> r(static_cast<size_t>(n));
  for (int x = 0; x < n; ++x) {
    double sample = rng.next_exponential(lambda);
    while (sample >= static_cast<double>(k)) {
      sample = rng.next_exponential(lambda);
      ++result.resample_count;
    }
    r[static_cast<size_t>(x)] = sample;
  }

  // k rounds of max-propagation: m_t(x) = max(m_{t-1}(x),
  // max_{v ~ x} (m_{t-1}(v) - 1)).
  std::vector<double> m(r);
  std::vector<int> s(static_cast<size_t>(n));
  for (int x = 0; x < n; ++x) s[static_cast<size_t>(x)] = x;
  result.rounds.push_back({m, s});
  for (int round = 0; round < k; ++round) {
    std::vector<double> next_m(m);
    std::vector<int> next_s(s);
    for (int x = 0; x < n; ++x) {
      for (const auto& [v, edge] : cg.adj[static_cast<size_t>(x)]) {
        (void)edge;
        const double cand = m[static_cast<size_t>(v)] - 1.0;
        if (cand > next_m[static_cast<size_t>(x)]) {
          next_m[static_cast<size_t>(x)] = cand;
          next_s[static_cast<size_t>(x)] = s[static_cast<size_t>(v)];
        }
      }
    }
    m = std::move(next_m);
    s = std::move(next_s);
    result.rounds.push_back({m, s});
  }

  // Edge selection: one edge per distinct final source among qualifying
  // neighbors (m(v) ≥ m(x) - 1). Deterministic: first qualifying neighbor
  // in adjacency order per source.
  std::vector<EdgeId> chosen;
  for (int x = 0; x < n; ++x) {
    std::map<int, std::pair<int, EdgeId>> per_source;
    for (const auto& [v, edge] : cg.adj[static_cast<size_t>(x)]) {
      if (m[static_cast<size_t>(v)] < m[static_cast<size_t>(x)] - 1.0)
        continue;
      per_source.try_emplace(s[static_cast<size_t>(v)],
                             std::pair<int, EdgeId>{v, edge});
    }
    for (const auto& [source, pick] : per_source) {
      (void)source;
      result.cluster_edges.push_back({x, pick.first});
      chosen.push_back(pick.second);
    }
  }
  // The cluster graph does not know the size of the graph its
  // representatives come from; the largest chosen id bounds the mask.
  EdgeId id_bound = 0;
  for (const EdgeId e : chosen) id_bound = std::max(id_bound, e + 1);
  result.representative_edges = dedupe_edge_ids(chosen, id_bound);
  return result;
}

}  // namespace lightnet
