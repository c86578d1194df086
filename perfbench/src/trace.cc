#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::open(std::string name, long op) {
  Record r;
  r.name = std::move(name);
  r.parent = current_;
  r.op = op >= 0 || current_ < 0 ? op : spans_[static_cast<size_t>(current_)].op;
  spans_.push_back(std::move(r));
  child_us_.push_back(0.0);
  current_ = static_cast<int>(spans_.size()) - 1;
  spans_.back().start_us = now_us();
  return current_;
}

void Tracer::close(int index) {
  Record& r = spans_[static_cast<size_t>(index)];
  r.end_us = now_us();
  if (r.parent >= 0)
    child_us_[static_cast<size_t>(r.parent)] += r.end_us - r.start_us;
  current_ = r.parent;
}

double Tracer::total_ms(const std::string& name, int from) const {
  double total = 0.0;
  for (size_t i = static_cast<size_t>(from); i < spans_.size(); ++i)
    if (spans_[i].name == name)
      total += spans_[i].end_us - spans_[i].start_us;
  return total / 1000.0;
}

double Tracer::self_ms(const std::string& name, int from) const {
  double total = 0.0;
  for (size_t i = static_cast<size_t>(from); i < spans_.size(); ++i)
    if (spans_[i].name == name)
      total += spans_[i].end_us - spans_[i].start_us - child_us_[i];
  return total / 1000.0;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const size_t slash = r.name.find('/');
    const std::string layer =
        slash == std::string::npos ? r.name : r.name.substr(0, slash);
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"op\":%ld,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", r.name.c_str(), layer.c_str(), r.start_us,
                 r.end_us - r.start_us, i, r.parent, r.op,
                 r.end_us - r.start_us - child_us_[i]);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
