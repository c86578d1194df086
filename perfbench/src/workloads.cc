#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string_view>

#include "api/registry.h"
#include "congest/fault.h"
#include "inputs.h"
#include "service/server.h"
#include "trace.h"

namespace perfbench {

namespace api = lightnet::api;
namespace congest = lightnet::congest;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const api::Construction& construction(const char* name) {
  const api::Construction* c = api::find_construction(name);
  if (c == nullptr) throw std::runtime_error(std::string("unknown ") + name);
  return *c;
}

bool is_baseline(const api::Construction& c) {
  return c.name() == "greedy_spanner" || c.name() == "kry_slt" ||
         c.name() == "sequential_net";
}

// Sums the ledger phases whose name `match` accepts.
congest::CostStats phase_sum(const congest::RoundLedger& ledger,
                             bool (*match)(const std::string&)) {
  congest::CostStats sum;
  for (const auto& [name, cost] : ledger.phases())
    if (match(name)) sum += cost;
  return sum;
}

// True when a component of the phase path starts with `head`: "mst/"
// matches "mst/boruvka-0" and "slt/mst/boruvka-0".
bool has_component(const std::string& name, const std::string& head) {
  return name.rfind(head, 0) == 0 || name.find("/" + head) != std::string::npos;
}

bool is_mst_phase(const std::string& name) {
  return has_component(name, "mst/") || has_component(name, "euler-tour/");
}

bool is_explore_phase(const std::string& name) {
  const size_t slash = name.rfind('/');
  const std::string leaf =
      slash == std::string::npos ? name : name.substr(slash + 1);
  return leaf.rfind("wave-", 0) == 0 && leaf.size() > 8 &&
         leaf.compare(leaf.size() - 8, 8, "-explore") == 0;
}

// ------------------------------------------------------------------------
// Construction workloads: general and doubling.

struct Op {
  const api::Construction* c = nullptr;
  int input = 0;
  api::ConstructionParams params;
  congest::FaultPlan fault;
  std::string label;  // the same for every instance of one input shape
  // Checked afterwards at threads=2 against this serial output.
  bool recheck_threaded = false;

  // First pass's result; later passes must reproduce it exactly.
  bool ran = false;
  bool failed = false;
  std::string error;
  api::Artifact artifact;
  std::uint64_t digest = 0;
  bool mismatch = false;
};

class ConstructionWorkload : public Workload {
 public:
  ConstructionWorkload(std::string name, std::uint64_t seed,
                       std::vector<Input> (*inputs)(std::uint64_t))
      : name_(std::move(name)), seed_(seed), make_inputs_(inputs),
        inputs_(inputs(seed)) {}

  void setup() override {
    inputs_ = make_inputs_(seed_);
    materialize_all(inputs_);
  }

  PassResult run_pass() override {
    PassResult r;
    const Clock::time_point pass_start = Clock::now();
    Span pass_span("bench/pass");
    for (size_t i = 0; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      const Input& in = inputs_[static_cast<size_t>(op.input)];
      api::RunContext ctx;
      ctx.seed = in.spec.seed;
      ctx.sched.fault = op.fault;
      ++r.attempted;
      bool failed = false;
      std::string error;
      api::Artifact a;
      const Clock::time_point t0 = Clock::now();
      {
        Span span(std::string(is_baseline(*op.c) ? "baseline/" : "core/") +
                      std::string(op.c->name()),
                  static_cast<long>(i));
        try {
          a = op.c->run(in.g, op.params, ctx);
        } catch (const std::exception& e) {
          failed = true;
          error = e.what();
        }
      }
      const double ms = ms_since(t0);
      if (failed)
        ++r.failed;
      else
        r.op_ms.push_back(ms);
      if (!op.ran) {
        op.ran = true;
        op.failed = failed;
        op.error = error;
        op.digest = artifact_digest(a);
        op.artifact = std::move(a);
      } else if (failed != op.failed ||
                 (!failed && (artifact_digest(a) != op.digest ||
                              !same_cost(a.ledger.total(),
                                         op.artifact.ledger.total())))) {
        op.mismatch = true;
      }
    }
    r.seconds = ms_since(pass_start) / 1000.0;
    return r;
  }

  std::string check() override {
    std::mt19937_64 rng(seed_ ^ 0x636865636bULL);
    std::map<int, Reference> refs;
    lightness_.clear();
    dense_lightness_ = 0.0;
    for (Op& op : ops_) {
      const std::string where = op.label;
      if (op.mismatch) return where + ": a later pass gave another output";
      if (op.failed) continue;
      const Input& in = inputs_[static_cast<size_t>(op.input)];
      auto it = refs.find(op.input);
      if (it == refs.end()) it = refs.emplace(op.input, reference_of(in.g)).first;
      const Reference& ref = it->second;
      std::string err =
          check_artifact(*op.c, in.g, ref, op.params, op.artifact, rng);
      if (!err.empty()) return where + ": " + err;
      if (op.fault.enabled()) {
        // A lossy run must return the fault-free output.
        api::RunContext ctx;
        ctx.seed = in.spec.seed;
        if (artifact_digest(op.c->run(in.g, op.params, ctx)) != op.digest)
          return where + ": output differs from the fault-free run";
      }
      if (op.recheck_threaded) {
        // The worker pool must reproduce the serial output and model costs.
        api::RunContext ctx;
        ctx.seed = in.spec.seed;
        ctx.sched.threads = 2;
        const api::Artifact threaded = op.c->run(in.g, op.params, ctx);
        if (artifact_digest(threaded) != op.digest ||
            !same_cost(threaded.ledger.total(), op.artifact.ledger.total()))
          return where + ": threads=2 output differs from the serial run";
      }
      if (!op.fault.enabled()) {
        const double l = lightness_of(*op.c, in.g, ref, op.artifact);
        if (l > 0.0) lightness_.push_back(l);
        if (op.label.find("dense") != std::string::npos &&
            op.c->name() == "light_spanner")
          dense_lightness_ = l;
      }
    }
    return "";
  }

  void output_metrics(Metrics& out) const override {
    congest::CostStats sum;
    for (const Op& op : ops_)
      if (!op.failed && !op.fault.enabled()) sum += op.artifact.ledger.total();
    double log_sum = 0.0;
    for (const double l : lightness_) log_sum += std::log(l);
    out.push_back({"rounds", static_cast<double>(sum.rounds), "count"});
    out.push_back({"messages", static_cast<double>(sum.messages), "count"});
    out.push_back({"words", static_cast<double>(sum.words), "count"});
    out.push_back(
        {"max_edge_load", static_cast<double>(sum.max_edge_load), "count"});
    out.push_back({"lightness_geomean",
                   lightness_.empty()
                       ? 0.0
                       : std::exp(log_sum / static_cast<double>(
                                                lightness_.size())),
                   "ratio"});
  }

  void layer_metrics(Metrics& out, int first_span) const override;

  std::vector<std::string> failures() const override {
    std::vector<std::string> out;
    for (const Op& op : ops_)
      if (op.failed) out.push_back(op.label + ": " + op.error);
    return out;
  }

 protected:
  static bool same_cost(const congest::CostStats& a,
                        const congest::CostStats& b) {
    return a.rounds == b.rounds && a.messages == b.messages &&
           a.words == b.words && a.max_edge_load == b.max_edge_load;
  }

  void add(const char* name, int input, api::ConstructionParams params = {},
           congest::FaultPlan fault = {}, const std::string& tag = "") {
    Op op;
    op.c = &construction(name);
    op.input = input;
    op.params = params;
    op.fault = fault;
    op.label = std::string(name) + "@" +
               inputs_[static_cast<size_t>(input)].label + tag;
    ops_.push_back(std::move(op));
  }

  std::string name_;
  std::uint64_t seed_;
  std::vector<Input> (*make_inputs_)(std::uint64_t);
  std::vector<Input> inputs_;  // materialized by setup()
  std::vector<Op> ops_;
  std::vector<double> lightness_;
  double dense_lightness_ = 0.0;
};

void ConstructionWorkload::layer_metrics(Metrics& out, int first_span) const {
  const Tracer& t = Tracer::get();
  std::map<std::string, bool> seen;
  for (const Op& op : ops_) {
    const std::string name(op.c->name());
    if (seen[name]) continue;
    seen[name] = true;
    const std::string layer = is_baseline(*op.c) ? "baseline" : "core";
    out.push_back({layer + "." + name + "_ms",
                   t.self_ms(layer + "/" + name, first_span), "ms"});
  }
  congest::CostStats mst, explore;
  std::uint64_t retransmitted = 0;
  for (const Op& op : ops_) {
    if (op.failed) continue;
    if (op.fault.enabled()) {
      retransmitted += op.artifact.ledger.total().retransmitted;
      continue;
    }
    mst += phase_sum(op.artifact.ledger, is_mst_phase);
    explore += phase_sum(op.artifact.ledger, is_explore_phase);
  }
  if (name_ == "general") {
    out.push_back({"congest.retransmitted",
                   static_cast<double>(retransmitted), "count"});
    out.push_back({"mst.messages", static_cast<double>(mst.messages), "count"});
    out.push_back(
        {"core.light_spanner.dense_lightness", dense_lightness_, "ratio"});
  }
  if (name_ == "doubling") {
    out.push_back({"routines.explore_messages",
                   static_cast<double>(explore.messages), "count"});
    out.push_back({"routines.explore_words",
                   static_cast<double>(explore.words), "count"});
  }
}

// Theorems 1-4 and the baselines on general graphs, plus a dense leg and a
// small lossy leg.
//
// elkin_neiman is left out here and in the service: on some seeds its
// output breaks the 2k-1 hop-stretch guarantee (see README.md), and an
// operation whose check fails only on some seeds cannot be counted steadily.
class GeneralWorkload : public ConstructionWorkload {
 public:
  explicit GeneralWorkload(std::uint64_t seed)
      : ConstructionWorkload("general", seed, general_inputs) {
    const int copies = kGeneralCopies;
    for (int in = 0; in < 4 * copies; ++in)
      for (const char* c :
           {"slt", "slt_light", "light_spanner", "net", "baswana_sen",
            "bfs_tree", "kry_slt", "sequential_net"})
        add(c, in);
    // At n=1024: mst_weight_estimate (nets at every scale; alone 6.5 s on
    // geo n=8192) and the O(m·Dijkstra) greedy baseline.
    for (int in = 4 * copies; in < 8 * copies; ++in) {
      add("mst_weight_estimate", in);
      add("greedy_spanner", in);
    }
    api::ConstructionParams dense;
    dense.k = 4;
    for (Op& op : ops_)
      op.recheck_threaded =
          op.input < 4 && (op.c->name() == "slt" || op.c->name() == "net" ||
                           op.c->name() == "light_spanner" ||
                           op.c->name() == "bfs_tree");
    add("light_spanner", 8 * copies, dense, {}, ":dense");
    add("baswana_sen", 8 * copies, dense, {}, ":dense");
    // Lossy leg, one fault seed: lossy bfs_tree runs 7-20x slower than
    // fault-free, so a mended slt may too, and these runs must stay a small
    // share of the pass.
    congest::FaultPlan lossy;
    lossy.seed = 1;
    lossy.drop = 0.05;
    for (int in = 8 * copies + 1; in < 8 * copies + 3; ++in) {
      add("bfs_tree", in, {}, lossy, ":drop=0.05:fault.seed=1");
      add("slt", in, {}, lossy, ":drop=0.05:fault.seed=1");
    }
  }
};

// Theorem 5's doubling spanner on doubling inputs.
class DoublingWorkload : public ConstructionWorkload {
 public:
  explicit DoublingWorkload(std::uint64_t seed)
      : ConstructionWorkload("doubling", seed, doubling_inputs) {
    api::ConstructionParams hopset;
    hopset.use_hopset = true;
    api::ConstructionParams fine;
    fine.epsilon = 0.125;
    for (int copy = 0; copy < kDoublingCopies; ++copy) {
      const int base = 6 * copy;
      for (int in = base; in < base + 4; ++in) add("doubling_spanner", in);
      ops_.back().recheck_threaded = copy == 0;
      add("doubling_spanner", base + 4, hopset, {}, ":hopset=1");
      add("doubling_spanner", base + 5, fine, {}, ":eps=0.125");
    }
  }
};

// ------------------------------------------------------------------------
// Service: one closed-loop client sending `run` requests to lightnetd.

// `count` requests over ranks [0, n) with Zipf(s) frequencies, P(k)
// proportional to 1/(k+1)^s: each rank gets its expected share rounded by
// largest remainder; `rng` only orders the requests.
std::vector<size_t> zipf_block(size_t n, double s, size_t count,
                               std::mt19937_64& rng) {
  std::vector<double> share(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    share[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
    total += share[k];
  }
  std::vector<size_t> times(n);
  size_t given = 0;
  for (size_t k = 0; k < n; ++k) {
    share[k] *= static_cast<double>(count) / total;
    times[k] = static_cast<size_t>(share[k]);
    given += times[k];
  }
  std::vector<size_t> by_remainder(n);
  for (size_t k = 0; k < n; ++k) by_remainder[k] = k;
  std::stable_sort(by_remainder.begin(), by_remainder.end(),
                   [&](size_t a, size_t b) {
                     return share[a] - static_cast<double>(times[a]) >
                            share[b] - static_cast<double>(times[b]);
                   });
  for (size_t i = 0; given + i < count; ++i) ++times[by_remainder[i]];
  std::vector<size_t> out;
  for (size_t k = 0; k < n; ++k) out.insert(out.end(), times[k], k);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// Reads the unsigned integer after `key` in `json` (0 when absent).
std::uint64_t read_count(const std::string& json, const std::string& key,
                         size_t from = 0) {
  const size_t at = json.find(key, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// Everything after the echoed id: identical for equal requests.
std::string_view body(const std::string& response) {
  const size_t at = response.find(",\"ok\":");
  return std::string_view(response).substr(at == std::string::npos ? 0 : at);
}

struct ServiceSpec {
  std::string construction;
  std::string family;
  int n = 0;
  std::uint64_t seed = 0;
  std::string text() const {
    return "construction=" + construction + " scenario=" + family +
           ":n=" + std::to_string(n) + ":seed=" + std::to_string(seed) +
           " quality=0";
  }
};

class ServiceWorkload : public Workload {
 public:
  static constexpr size_t kBlock = 2000;  // requests per pass
  static constexpr double kZipf = 1.1;

  explicit ServiceWorkload(std::uint64_t seed) : seed_(seed) {
    // Popularity rank r is construction r % 8 on family (r / 8) % 4 at the
    // (r / 32) % 3-th size, and the request order is fixed: which requests
    // hit and which miss the caches is the same in every run (a seeded order
    // moved wall_s by 20% from seed to seed). The seed changes the graphs.
    // baswana_sen is left out: on a few small graphs its stretch exceeds
    // 2k-1 (see README.md), which would fail the check on some seeds only.
    for (std::uint64_t s = 1; s <= 16; ++s)
      for (const int n : {64, 100, 144})
        for (const char* f : {"er", "geo", "ring", "grid"})
          for (const char* c :
               {"bfs_tree", "slt", "slt_light", "light_spanner", "net",
                "mst_weight_estimate", "kry_slt", "sequential_net"})
            universe_.push_back({c, f, n, seed * 100 + s});
    std::mt19937_64 order(0x7a697066ULL);
    trace_ = zipf_block(universe_.size(), kZipf, kBlock, order);
    for (size_t i = 0; i < trace_.size(); ++i)
      lines_.push_back("{\"op\":\"run\",\"id\":" + std::to_string(i) +
                       ",\"spec\":\"" + universe_[trace_[i]].text() + "\"}");
  }

  void setup() override {
    server_.reset();
    server_ = std::make_unique<lightnet::service::LightnetServer>();
    for (const std::string& line : lines_) server_->handle_line(line);
  }

  PassResult run_pass() override {
    PassResult r;
    const bool traced = Tracer::get().enabled();
    const Clock::time_point pass_start = Clock::now();
    Span pass_span("bench/pass");
    const bool keep = responses_.empty();
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::uint64_t hits_before = 0;
      if (traced)
        hits_before = read_count(server_->stats_json(), "\"hits\":");
      const Clock::time_point t0 = Clock::now();
      std::string response;
      {
        Span span("service/handle_line", static_cast<long>(i));
        response = server_->handle_line(lines_[i]);
      }
      const double ms = ms_since(t0);
      ++r.attempted;
      if (response.find(",\"ok\":true,") == std::string::npos) {
        ++r.failed;
      } else {
        r.op_ms.push_back(ms);
      }
      if (traced) {
        const bool hit =
            read_count(server_->stats_json(), "\"hits\":") > hits_before;
        (hit ? hit_ms_ : miss_ms_).push_back(ms);
      }
      // Every later pass, cache hit or recompute, must repeat the first.
      if (keep)
        responses_.push_back(std::move(response));
      else if (!repeat_mismatch_ && body(response) != body(responses_[i]))
        repeat_mismatch_ = i;
    }
    r.seconds = ms_since(pass_start) / 1000.0;
    return r;
  }

  std::string check() override {
    if (repeat_mismatch_)
      return "request " + std::to_string(*repeat_mismatch_) +
             ": a later pass gave another response";
    // Cold reference: a cache-disabled server answers each distinct spec.
    lightnet::service::ServiceOptions cold_options;
    cold_options.cache_enabled = false;
    lightnet::service::LightnetServer cold(cold_options);
    std::map<size_t, std::string> cold_body;
    std::mt19937_64 rng(seed_ ^ 0x636865636bULL);
    lightness_.clear();
    costs_ = {};
    for (size_t i = 0; i < responses_.size(); ++i) {
      const std::string& got = responses_[i];
      if (got.find(",\"ok\":true,") == std::string::npos) continue;
      auto it = cold_body.find(trace_[i]);
      if (it == cold_body.end()) {
        it = cold_body
                 .emplace(trace_[i],
                          std::string(body(cold.handle_line(lines_[i]))))
                 .first;
        std::string err = check_spec(universe_[trace_[i]], it->second, rng);
        if (!err.empty()) return universe_[trace_[i]].text() + ": " + err;
      }
      if (body(got) != it->second)
        return "request " + std::to_string(i) +
               ": response differs from the cache-disabled server's";
    }
    return "";
  }

  void output_metrics(Metrics& out) const override {
    double log_sum = 0.0;
    for (const double l : lightness_) log_sum += std::log(l);
    out.push_back({"rounds", static_cast<double>(costs_.rounds), "count"});
    out.push_back({"messages", static_cast<double>(costs_.messages), "count"});
    out.push_back({"words", static_cast<double>(costs_.words), "count"});
    out.push_back(
        {"max_edge_load", static_cast<double>(costs_.max_edge_load), "count"});
    out.push_back({"lightness_geomean",
                   lightness_.empty()
                       ? 0.0
                       : std::exp(log_sum / static_cast<double>(
                                                lightness_.size())),
                   "ratio"});
  }

  void layer_metrics(Metrics& out, int) const override {
    auto median = [](std::vector<double> v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const std::string stats = server_->handle_line("{\"op\":\"stats\",\"id\":0}");
    const size_t artifact = stats.find("\"artifact\":{");
    const size_t scenario = stats.find("\"scenario\":{");
    const size_t substrate = stats.find("\"substrate\":{");
    const double hits =
        static_cast<double>(read_count(stats, "\"hits\":", artifact));
    const double misses =
        static_cast<double>(read_count(stats, "\"misses\":", artifact));
    const double resident =
        static_cast<double>(read_count(stats, "\"resident_bytes\":", artifact) +
                            read_count(stats, "\"resident_bytes\":", scenario) +
                            read_count(stats, "\"resident_bytes\":", substrate));
    out.push_back({"service.hit_us_p50", median(hit_ms_) * 1000.0, "us"});
    out.push_back({"service.miss_ms_p50", median(miss_ms_), "ms"});
    out.push_back({"service.hit_ratio", hits / std::max(1.0, hits + misses),
                   "ratio"});
    out.push_back({"service.evictions",
                   static_cast<double>(
                       read_count(stats, "\"evictions\":", artifact)),
                   "count"});
    out.push_back({"service.scenario_hits",
                   static_cast<double>(read_count(stats, "\"hits\":", scenario)),
                   "count"});
    out.push_back({"service.resident_mb", resident / (1024.0 * 1024.0), "MB"});
  }

 private:
  // Runs the spec's construction directly and checks the output, and that
  // the served record carries the same model costs.
  std::string check_spec(const ServiceSpec& s, const std::string& record,
                         std::mt19937_64& rng) {
    Input in = scenario(s.family, s.n, s.seed);
    in.g = api::materialize(in.spec);
    const Reference ref = reference_of(in.g);
    const api::Construction& c = construction(s.construction.c_str());
    api::RunContext ctx;
    ctx.seed = s.seed;
    const api::ConstructionParams params;
    const api::Artifact a = c.run(in.g, params, ctx);
    std::string err = check_artifact(c, in.g, ref, params, a, rng);
    if (!err.empty()) return err;
    const congest::CostStats& cost = a.ledger.total();
    const size_t total = record.find("\"cost\":{\"total\":{");
    if (total == std::string::npos) return "record has no cost";
    if (read_count(record, "\"rounds\":", total) != cost.rounds ||
        read_count(record, "\"messages\":", total) != cost.messages ||
        read_count(record, "\"words\":", total) != cost.words)
      return "record's model costs differ from a direct run";
    costs_ += cost;
    const double l = lightness_of(c, in.g, ref, a);
    if (l > 0.0) lightness_.push_back(l);
    return "";
  }

  std::uint64_t seed_;
  std::vector<ServiceSpec> universe_;
  std::vector<size_t> trace_;
  std::vector<std::string> lines_;
  std::unique_ptr<lightnet::service::LightnetServer> server_;
  std::vector<std::string> responses_;  // first timed pass
  std::optional<size_t> repeat_mismatch_;  // a request a later pass changed
  std::vector<double> hit_ms_, miss_ms_;
  std::vector<double> lightness_;
  congest::CostStats costs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"general", "doubling",
                                                 "service"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "general") return std::make_unique<GeneralWorkload>(seed);
  if (name == "doubling") return std::make_unique<DoublingWorkload>(seed);
  if (name == "service") return std::make_unique<ServiceWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
