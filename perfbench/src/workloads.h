// The benchmark's workloads.
//
// A workload is a fixed list of operations made from the run's seed. A run
// sets the workload up (timed as setup_s), then replays whole passes over the
// list until the measuring time is used up, then checks every output against
// the benchmark's own computations (oracle.h). Every pass attempts the same
// operations, so the share of failed operations is the same in every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct PassResult {
  double seconds = 0.0;
  long attempted = 0;
  long failed = 0;
  std::vector<double> op_ms;  // latency of every operation that succeeded
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Drops any previous inputs and builds them again from the seed.
  virtual void setup() = 0;
  virtual PassResult run_pass() = 0;
  // Checks every output of the passes run so far; returns "" when they all
  // hold, else the first violation. Never timed.
  virtual std::string check() = 0;
  // End-to-end metrics read from the outputs (model costs, quality); the
  // timing metrics are added by the caller.
  virtual void output_metrics(Metrics& out) const = 0;
  // Per-layer metrics this workload's outputs and spans give, after a
  // traced pass; `first_span` is where that pass's spans begin.
  virtual void layer_metrics(Metrics& out, int first_span) const = 0;
  // One line per operation that failed: what it was and why.
  virtual std::vector<std::string> failures() const { return {}; }
};

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// Direct calls into each layer's public functions (graph, api, congest, mst,
// routines, core) on inputs made from `seed`, timed under spans; appends the
// probe-derived per-layer metrics.
void probe_layers(std::uint64_t seed, Metrics& out);

}  // namespace perfbench
