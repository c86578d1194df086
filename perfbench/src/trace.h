// In-memory spans around the benchmark's calls into lightnet's layers.
//
// A span has a name ("<layer>/<function>"), a start and end on the steady
// clock, the span that was open when it began (its parent) and the id of the
// operation it belongs to. Spans are kept in memory while tracing is on and
// written out once, as Chrome trace-event JSON, when the run ends. With
// tracing off a Span costs one branch.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    long op = -1;
  };

  static Tracer& get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name, long op);
  void close(int index);

  // Number of spans recorded so far; a later query's `from` argument
  // restricts it to the spans recorded after that point.
  int size() const { return static_cast<int>(spans_.size()); }

  // Total span time and self time (span time minus the time its child
  // spans cover), in milliseconds, over every span called `name`.
  double total_ms(const std::string& name, int from = 0) const;
  double self_ms(const std::string& name, int from = 0) const;

  bool write_chrome(const std::string& path) const;

 private:
  double now_us() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> spans_;
  std::vector<double> child_us_;  // per span: time covered by its children
  int current_ = -1;
};

// Scoped span; does nothing while tracing is off.
class Span {
 public:
  Span(const char* name, long op = -1) {
    Tracer& t = Tracer::get();
    if (t.enabled()) index_ = t.open(name, op);
  }
  Span(const std::string& name, long op = -1) {
    Tracer& t = Tracer::get();
    if (t.enabled()) index_ = t.open(name, op);
  }
  ~Span() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

}  // namespace perfbench
