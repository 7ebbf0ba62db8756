#include "spans.hpp"

#include <time.h>

#include <fstream>
#include <stdexcept>

#include "common/json.hpp"

namespace hostbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int32_t Tracer::open(const char* name, const char* layer) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, layer, cell, top_, now_ns(), 0});
  top_ = idx;
  return idx;
}

void Tracer::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  top_ = spans_[static_cast<std::size_t>(idx)].parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write_chrome(const std::string& path, const std::string& workload) const {
  namespace json = aecdsm::json;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  json::Value events = json::Value::array();
  for (const Span& s : spans_) {
    json::Value e = json::Value::object();
    e["name"] = json::Value(s.name);
    e["cat"] = json::Value(s.layer);
    e["ph"] = json::Value("X");
    e["ts"] = json::Value(static_cast<double>(s.start_ns - t0) * 1e-3);
    e["dur"] = json::Value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    e["pid"] = json::Value(1);
    e["tid"] = json::Value(1);
    json::Value args = json::Value::object();
    args["cell"] = json::Value(static_cast<std::uint64_t>(s.cell));
    e["args"] = std::move(args);
    events.append(std::move(e));
  }
  json::Value self = json::Value::object();
  for (const auto& [layer, sec] : self_seconds()) self[layer] = json::Value(sec * 1e3);
  json::Value other = json::Value::object();
  other["workload"] = json::Value(workload);
  other["layer_self_ms"] = std::move(self);
  json::Value doc = json::Value::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = json::Value("ms");
  doc["otherData"] = std::move(other);
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot write trace file " + path);
  doc.write(out, -1);
  out << "\n";
}

}  // namespace hostbench
