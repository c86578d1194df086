// Layer probes for the traced run: direct calls into the public functions
// of graph, api, congest, mst, routines and core, each under a span, on the
// workloads' own inputs.
#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/cli.h"
#include "api/record.h"
#include "api/substrate_pool.h"
#include "congest/bellman_ford.h"
#include "congest/bfs.h"
#include "core/doubling_spanner.h"
#include "inputs.h"
#include "mst/euler_tour.h"
#include "mst/fragment_mst.h"
#include "routines/approx_spt.h"
#include "routines/bounded_multisource.h"
#include "routines/le_lists.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace api = lightnet::api;
namespace congest = lightnet::congest;
using lightnet::VertexId;
using lightnet::WeightedGraph;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<VertexId> all_vertices(const WeightedGraph& g) {
  std::vector<VertexId> v(static_cast<size_t>(g.num_vertices()));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

void le_lists(const WeightedGraph& g, std::mt19937_64& rng) {
  const std::vector<VertexId> active = all_vertices(g);
  std::vector<std::uint64_t> rank(active.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::shuffle(rank.begin(), rank.end(), rng);
  Span span("routines/compute_le_lists");
  lightnet::compute_le_lists(g, active, rank, 0.5);
}

// run_and_record minus Construction::run, each the fastest of three, summed
// over small lightnetd-style specs.
double record_overhead_ms(std::uint64_t seed) {
  double total = 0.0;
  for (const char* family : {"er", "geo"})
    for (const char* c : {"bfs_tree", "slt", "slt_light", "light_spanner",
                          "net", "kry_slt"}) {
      api::RunSpec spec;
      const std::string err = api::parse_single_run_spec(
          {std::string("construction=") + c,
           std::string("scenario=") + family + ":n=100:seed=" +
               std::to_string(seed),
           "quality=0"},
          &spec);
      if (!err.empty()) throw std::runtime_error(err);
      const WeightedGraph g = api::materialize(spec.scenario);
      const int diameter = g.hop_diameter();
      double run_ms = 1e300, record_ms = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        api::RunContext ctx;
        ctx.seed = spec.scenario.seed;
        Clock::time_point t0 = Clock::now();
        spec.construction->run(g, spec.params, ctx);
        run_ms = std::min(run_ms, ms_since(t0));
        t0 = Clock::now();
        {
          Span span("api/run_and_record");
          api::run_and_record(g, diameter, spec, api::RunContext{});
        }
        record_ms = std::min(record_ms, ms_since(t0));
      }
      total += record_ms - run_ms;
    }
  return total;
}

}  // namespace

void probe_layers(std::uint64_t seed, Metrics& out) {
  Tracer& t = Tracer::get();
  std::mt19937_64 rng(seed ^ 0x70726f6265ULL);

  // graph: the general workload's set-up, call by call.
  int from = t.size();
  std::vector<Input> general = general_inputs(seed);
  materialize_all(general);
  out.push_back({"graph.generate_s",
                 t.total_ms("graph/materialize", from) / 1000.0, "s"});
  out.push_back({"graph.hop_diameter_s",
                 t.total_ms("graph/hop_diameter", from) / 1000.0, "s"});

  // congest, mst, routines on the general inputs at n=2048.
  from = t.size();
  double kernel_messages = 0.0;
  std::uint64_t reallocs = 0;
  for (size_t i = 0; i < 4; ++i) {
    const WeightedGraph& g = general[i].g;
    congest::BfsTreeResult bfs;
    {
      Span span("congest/build_bfs_tree");
      bfs = congest::build_bfs_tree(g, 0);
    }
    const VertexId source = 0;
    congest::BellmanFordResult bf;
    {
      Span span("congest/distributed_bellman_ford");
      bf = congest::distributed_bellman_ford(g, {&source, 1});
    }
    kernel_messages += static_cast<double>(bfs.cost.messages + bf.cost.messages);
    reallocs += bfs.cost.inbox_reallocs + bf.cost.inbox_reallocs;
    lightnet::DistributedMstResult mst;
    {
      Span span("mst/build_distributed_mst");
      mst = lightnet::build_distributed_mst(g, 0);
    }
    {
      Span span("mst/build_euler_tour");
      lightnet::build_euler_tour(g, mst, bfs);
    }
    {
      Span span("routines/build_approx_spt");
      lightnet::build_approx_spt(g, 0, 0.25);
    }
    le_lists(g, rng);
  }
  const double bfs_ms = t.total_ms("congest/build_bfs_tree", from);
  const double bf_ms = t.total_ms("congest/distributed_bellman_ford", from);
  out.push_back({"congest.bfs_ms", bfs_ms, "ms"});
  out.push_back({"congest.bellman_ford_ms", bf_ms, "ms"});
  out.push_back({"congest.msgs_per_s",
                 kernel_messages / ((bfs_ms + bf_ms) / 1000.0), "1/s"});
  out.push_back({"congest.inbox_reallocs", static_cast<double>(reallocs),
                 "count"});
  out.push_back({"mst.boruvka_ms", t.total_ms("mst/build_distributed_mst", from),
                 "ms"});
  out.push_back(
      {"mst.euler_tour_ms", t.total_ms("mst/build_euler_tour", from), "ms"});
  out.push_back({"routines.approx_spt_ms",
                 t.total_ms("routines/build_approx_spt", from), "ms"});
  general.clear();

  // api, routines and the doubling pipeline's phases on the doubling inputs.
  std::vector<Input> doubling = doubling_inputs(seed);
  materialize_all(doubling);
  double net_ms = 0.0, seedchain_ms = 0.0, explore_ms = 0.0, pairs_ms = 0.0;
  for (const Input& in : doubling) {
    const WeightedGraph& g = in.g;
    {
      api::SubstratePool pool(&g);
      Span span("api/substrate_acquire");
      pool.acquire(0.25);
    }
    le_lists(g, rng);
    std::vector<VertexId> sources;
    for (VertexId v = 0; v < g.num_vertices(); v += 8) sources.push_back(v);
    const double radius = net_radius(g, mst_weight(g));
    {
      Span span("routines/bounded_multi_source_paths");
      lightnet::bounded_multi_source_paths(g, sources, radius, 0.25);
    }
    lightnet::DoublingSpannerParams params;
    params.epsilon = 0.25;
    api::RunContext ctx;
    ctx.seed = in.spec.seed;
    lightnet::DoublingSpannerResult r;
    {
      Span span("core/build_doubling_spanner");
      r = lightnet::build_doubling_spanner(g, params, ctx);
    }
    for (const lightnet::ScaleDiagnostics& s : r.scales) {
      net_ms += s.net_wall_ms;
      seedchain_ms += s.seedchain_wall_ms;
      explore_ms += s.explore_wall_ms;
      pairs_ms += s.pairs_wall_ms;
    }
  }
  out.push_back(
      {"api.substrate_ms", t.total_ms("api/substrate_acquire", from), "ms"});
  out.push_back({"routines.le_lists_ms",
                 t.total_ms("routines/compute_le_lists", from), "ms"});
  out.push_back({"routines.multisource_ms",
                 t.total_ms("routines/bounded_multi_source_paths", from), "ms"});
  out.push_back({"core.doubling.net_ms", net_ms, "ms"});
  out.push_back({"core.doubling.seedchain_ms", seedchain_ms, "ms"});
  out.push_back({"core.doubling.explore_ms", explore_ms, "ms"});
  out.push_back({"core.doubling.pairs_ms", pairs_ms, "ms"});
  doubling.clear();

  // congest at threads=2: the worker pool's barriers and shard skew, on a
  // 512 x 512 grid (BFS) and er n=1024 (Bellman-Ford).
  std::vector<Input> pooled = {scenario("grid", 512 * 512, seed * 1000 + 201),
                               scenario("er", 1024, seed * 1000 + 202)};
  for (Input& in : pooled) in.needs_diameter = false;
  materialize_all(pooled);
  congest::SchedulerOptions two;
  two.threads = 2;
  std::uint64_t barrier_ns = 0, skew = 0;
  {
    Span span("congest/build_bfs_tree");
    const congest::BfsTreeResult r =
        congest::build_bfs_tree(pooled[0].g, 0, two);
    barrier_ns += r.cost.barrier_wait_ns;
    skew = std::max(skew, r.cost.max_shard_skew);
  }
  {
    const VertexId source = 0;
    Span span("congest/distributed_bellman_ford");
    const congest::BellmanFordResult r = congest::distributed_bellman_ford(
        pooled[1].g, {&source, 1}, {}, two);
    barrier_ns += r.cost.barrier_wait_ns;
    skew = std::max(skew, r.cost.max_shard_skew);
  }
  out.push_back({"congest.barrier_wait_ms",
                 static_cast<double>(barrier_ns) / 1e6, "ms"});
  out.push_back({"congest.max_shard_skew", static_cast<double>(skew), "count"});

  out.push_back({"api.record_ms", record_overhead_ms(seed), "ms"});
}

}  // namespace perfbench
