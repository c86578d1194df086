// lightnet_perfbench: one run of one benchmark workload.
//
//   lightnet_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-file PATH]
//
// Untraced (--trace 0): sets the workload up at least three times and for at
// least ten seconds (setup_s is the median), replays whole passes over its
// operations for S seconds, checks every output, and prints the end-to-end
// metrics.
//
// Traced (--trace 1): runs one untraced and one traced pass of the named
// workload (their ratio is trace.overhead_ratio), one traced pass of every
// other workload, and the layer probes; prints every per-layer metric and
// writes the spans as Chrome trace-event JSON to PATH.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metrics;
using perfbench::PassResult;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// A set-up of doubling takes under 0.1 s. Machine drift, in regimes that last
// seconds, spread a median of three such set-ups by 25-37% over ten runs;
// set-ups repeated for ten seconds spread about as much as wall_s.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 10.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::string error;

  void add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
  void check(const std::string& name, Workload& w) {
    const std::string err = w.check();
    if (!err.empty() && correct) {
      correct = false;
      error = name + ": " + err;
    }
  }
};

void print_result(const Outcome& o, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              o.correct ? "true" : "false", o.attempted, o.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_untraced(const std::string& name, std::uint64_t seed,
                 double seconds) {
  std::unique_ptr<Workload> w = perfbench::make_workload(name, seed);
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kMinSetups || setup_total < kMinSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
    setup_total += setups.back();
  }

  Outcome o;
  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(w->run_pass());
    o.add(passes.back());
  } while (seconds_since(start) < seconds);
  const double rss = peak_rss_mb();
  o.check(name, *w);

  std::vector<double> pass_s, all_ms;
  for (const PassResult& p : passes) {
    pass_s.push_back(p.seconds);
    all_ms.insert(all_ms.end(), p.op_ms.begin(), p.op_ms.end());
  }
  // Every pass runs the same operations in the same order, and the same ones
  // fail (check() reports it otherwise), so op_ms[i] is one operation in
  // every pass. The tail is taken over each operation's median latency
  // across passes, which keeps a single slow pass from setting it.
  size_t ops = passes.front().op_ms.size();
  for (const PassResult& p : passes) ops = std::min(ops, p.op_ms.size());
  std::vector<double> op_median_ms;
  for (size_t i = 0; i < ops; ++i) {
    std::vector<double> per_pass;
    for (const PassResult& p : passes) per_pass.push_back(p.op_ms[i]);
    op_median_ms.push_back(median(per_pass));
  }

  Metrics m;
  m.push_back({"setup_s", median(setups), "s"});
  m.push_back({"wall_s", median(pass_s), "s"});
  m.push_back({"op_ms_p50", median(all_ms), "ms"});
  m.push_back({"op_ms_p99", percentile(op_median_ms, 0.99), "ms"});
  m.push_back({"ops_per_s",
               static_cast<double>(passes.front().attempted) / median(pass_s),
               "1/s"});
  w->output_metrics(m);
  m.push_back({"peak_rss_mb", rss, "MB"});

  std::printf("workload %s seed %llu: %zu passes, %ld ops attempted, %ld "
              "failed\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              passes.size(), o.attempted, o.failed);
  for (const std::string& f : w->failures())
    std::printf("failed every pass: %s\n", f.c_str());
  if (!o.correct) std::printf("check failed: %s\n", o.error.c_str());
  print_result(o, m);
  return 0;
}

int run_traced(const std::string& name, std::uint64_t seed,
               const std::string& trace_file) {
  perfbench::Tracer& tracer = perfbench::Tracer::get();
  Outcome o;
  Metrics m;
  double overhead = 0.0;
  for (const std::string& other : perfbench::workload_names()) {
    std::unique_ptr<Workload> w = perfbench::make_workload(other, seed);
    tracer.set_enabled(false);
    w->setup();
    double plain_s = 0.0;
    if (other == name) {
      const PassResult plain = w->run_pass();
      o.add(plain);
      plain_s = plain.seconds;
    }
    tracer.set_enabled(true);
    const int first = tracer.size();
    const PassResult traced = w->run_pass();
    if (other == name) {
      o.add(traced);
      overhead = traced.seconds / plain_s;
    }
    o.check(other, *w);
    w->layer_metrics(m, first);
  }
  perfbench::probe_layers(seed, m);
  m.push_back({"trace.overhead_ratio", overhead, "ratio"});
  tracer.set_enabled(false);

  if (!trace_file.empty() && !tracer.write_chrome(trace_file)) {
    std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
    return 1;
  }
  std::printf("workload %s seed %llu traced: pass %.3fx the untraced time; "
              "trace in %s\n",
              name.c_str(), static_cast<unsigned long long>(seed), overhead,
              trace_file.empty() ? "(not written)" : trace_file.c_str());
  if (!o.correct) std::printf("check failed: %s\n", o.error.c_str());
  print_result(o, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lightnet_perfbench --workload general|doubling|"
               "service --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_file;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--trace-file") trace_file = value;
    else return usage();
  }
  if (argc % 2 == 0 || !perfbench::make_workload(workload, seed) ||
      seconds <= 0.0 || (trace != 0 && trace != 1))
    return usage();
  try {
    return trace == 1 ? run_traced(workload, seed, trace_file)
                      : run_untraced(workload, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lightnet_perfbench: %s\n", e.what());
    return 1;
  }
}
