#include "inputs.h"

#include <cmath>

#include "trace.h"

namespace perfbench {

using lightnet::api::Artifact;
using lightnet::api::ArtifactKind;
using lightnet::api::Construction;
using lightnet::api::ConstructionParams;

Input scenario(const std::string& family, int n, std::uint64_t seed,
               double avg_degree) {
  Input in;
  in.spec.family = family;
  in.spec.n = n;
  in.spec.seed = seed;
  in.spec.avg_degree = avg_degree;
  in.label = family + ":n=" + std::to_string(n);
  if (avg_degree != 8.0)
    in.label += ":deg=" + std::to_string(static_cast<int>(avg_degree));
  return in;
}

void materialize_all(std::vector<Input>& inputs) {
  for (Input& in : inputs) {
    {
      Span span("graph/materialize");
      in.g = lightnet::api::materialize(in.spec);
    }
    if (in.needs_diameter) {
      Span span("graph/hop_diameter");
      in.diameter = in.g.hop_diameter();
    }
  }
}

// Scenario seeds: 1000 apart per run seed, so every input of a run has its
// own generator stream and no two run seeds share one.
static std::uint64_t derive(std::uint64_t seed, int index) {
  return seed * 1000 + static_cast<std::uint64_t>(index) + 1;
}

std::vector<Input> general_inputs(std::uint64_t seed) {
  std::vector<Input> v;
  int i = 0;
  // Several instances per family and size: the heaviest runs (slt_light
  // and mst_weight_estimate on geo) vary by about 15% from graph to graph.
  for (const int n : {2048, 1024})
    for (int copy = 0; copy < kGeneralCopies; ++copy)
      for (const char* f : {"er", "geo", "ring", "grid"})
        v.push_back(scenario(f, n, derive(seed, i++)));
  // Dense leg: avg_degree = sqrt(n).
  v.push_back(scenario("er", 1024, derive(seed, i++), 32.0));
  // Lossy leg: fixed inputs, the same for every run seed.
  v.push_back(scenario("er", 512, 1));
  v.push_back(scenario("grid", 512, 1));
  return v;
}

std::vector<Input> doubling_inputs(std::uint64_t seed) {
  std::vector<Input> v;
  int i = 100;
  for (int copy = 0; copy < kDoublingCopies; ++copy) {
    v.push_back(scenario("grid", 384, derive(seed, i++)));
    v.push_back(scenario("grid", 768, derive(seed, i++)));
    v.push_back(scenario("geo", 192, derive(seed, i++)));
    v.push_back(scenario("geo", 256, derive(seed, i++)));
    v.push_back(scenario("grid", 144, derive(seed, i++)));  // hopset=1
    v.push_back(scenario("grid", 256, derive(seed, i++)));  // eps=0.125
  }
  return v;
}

Reference reference_of(const lightnet::WeightedGraph& g) {
  Reference r;
  r.mst = mst_weight(g);
  r.adj = adjacency_of(g);
  return r;
}

static std::vector<int> sample_sources(int n, int count,
                                       std::mt19937_64& rng) {
  std::vector<int> out;
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int i = 0; i < count; ++i) out.push_back(pick(rng));
  return out;
}

std::string check_artifact(const Construction& c,
                           const lightnet::WeightedGraph& g,
                           const Reference& ref, const ConstructionParams& p,
                           const Artifact& a, std::mt19937_64& rng) {
  const std::string name(c.name());
  const double k = static_cast<double>(p.k);
  const int sources = 6;
  if (name == "slt") {
    TreeBounds b;
    b.root_stretch = (1.0 + p.epsilon) * (1.0 + 25.0 * p.epsilon);
    b.lightness = 1.0 + 4.0 / p.epsilon;
    return check_tree(g, ref.adj, a.edges, p.root, ref.mst, b);
  }
  if (name == "slt_light") {
    TreeBounds b;
    b.lightness = 1.0 + p.gamma;
    return check_tree(g, ref.adj, a.edges, p.root, ref.mst, b);
  }
  if (name == "kry_slt") {
    TreeBounds b;
    b.root_stretch = p.alpha;
    b.lightness = 1.0 + 2.0 / (p.alpha - 1.0);
    return check_tree(g, ref.adj, a.edges, p.root, ref.mst, b);
  }
  if (name == "bfs_tree") {
    TreeBounds b;
    b.hop_exact = true;
    return check_tree(g, ref.adj, a.edges, p.root, ref.mst, b);
  }
  if (name == "light_spanner" || name == "greedy_spanner")
    return check_spanner(g, ref.adj, a.edges,
                         sample_sources(g.num_vertices(), sources, rng),
                         (2.0 * k - 1.0) * (1.0 + p.epsilon), false);
  if (name == "baswana_sen")
    return check_spanner(g, ref.adj, a.edges,
                         sample_sources(g.num_vertices(), sources, rng),
                         2.0 * k - 1.0, false);
  if (name == "elkin_neiman")
    return check_spanner(g, ref.adj, a.edges,
                         sample_sources(g.num_vertices(), sources, rng),
                         2.0 * k - 1.0, true);
  if (name == "doubling_spanner")
    return check_spanner(g, ref.adj, a.edges,
                         sample_sources(g.num_vertices(), sources, rng),
                         1.0 + 30.0 * p.epsilon, false);
  if (name == "net" || name == "sequential_net") {
    const double radius = p.radius > 0.0 ? p.radius : net_radius(g, ref.mst);
    if (name == "sequential_net")
      return check_net(ref.adj, a.vertices, radius, radius);
    return check_net(ref.adj, a.vertices, (1.0 + p.delta) * radius,
                     radius / (1.0 + p.delta));
  }
  if (name == "mst_weight_estimate") {
    const double psi = lightnet::api::diagnostic_or(a.diagnostics, "psi", 0.0);
    const double ratio = psi / ref.mst;
    const double upper = 16.0 * (1.0 + p.delta) * (1.0 + p.delta) *
                         std::log2(g.num_vertices() + 2.0);
    if (!(ratio >= 1.0 - 1e-9 && ratio <= upper))
      return "MST estimate ratio " + std::to_string(ratio) +
             " outside [1, " + std::to_string(upper) + "]";
    return "";
  }
  return "no check for construction " + name;
}

double lightness_of(const Construction& c, const lightnet::WeightedGraph& g,
                    const Reference& ref, const Artifact& a) {
  if (c.kind() != ArtifactKind::kTree && c.kind() != ArtifactKind::kSpanner)
    return 0.0;
  return edge_weight(g, a.edges) / ref.mst;
}

std::uint64_t artifact_digest(const Artifact& a) {
  return digest(a.vertices, digest(a.edges));
}

}  // namespace perfbench
