// Input make-up shared by the workloads and the layer probes, and the
// output check every construction result goes through.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "api/artifact.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "graph/graph.h"
#include "oracle.h"

namespace perfbench {

struct Input {
  std::string label;  // "er:n=2048"
  lightnet::api::ScenarioSpec spec;
  bool needs_diameter = true;
  lightnet::WeightedGraph g;
  // The hop diameter every record carries (api::run_and_record takes it),
  // computed as part of set-up; -1 when not needed.
  int diameter = -1;
};

// A scenario of `family` with `n` vertices, generated from `seed`.
Input scenario(const std::string& family, int n, std::uint64_t seed,
               double avg_degree = 8.0);

// Materializes each input (and its hop diameter where needed) under
// graph/* spans.
void materialize_all(std::vector<Input>& inputs);

// Independent instances per input shape: costs vary by 10-15% from graph
// to graph, and the benchmark reports sums and medians over instances.
inline constexpr int kGeneralCopies = 3;
inline constexpr int kDoublingCopies = 4;

std::vector<Input> general_inputs(std::uint64_t seed);
std::vector<Input> doubling_inputs(std::uint64_t seed);

// Per-input reference data, built on first use.
struct Reference {
  double mst = 0.0;
  Adjacency adj;
};
Reference reference_of(const lightnet::WeightedGraph& g);

// Checks one construction output against the guarantee of its method,
// with bounds derived from `params`. Returns "" when it holds.
std::string check_artifact(const lightnet::api::Construction& c,
                           const lightnet::WeightedGraph& g,
                           const Reference& ref,
                           const lightnet::api::ConstructionParams& params,
                           const lightnet::api::Artifact& a,
                           std::mt19937_64& rng);

// w(output)/w(MST) for tree and spanner outputs, 0 for the other kinds.
double lightness_of(const lightnet::api::Construction& c,
                    const lightnet::WeightedGraph& g, const Reference& ref,
                    const lightnet::api::Artifact& a);

std::uint64_t artifact_digest(const lightnet::api::Artifact& a);

}  // namespace perfbench
