// In-memory spans for the benchmark's traced run.
//
// Spans are opened only in the benchmark's own code, around its calls into
// each simulator layer (apps::make_app, policy::make_instance, dsm::run_app,
// LAP scores, serialization, CellCache, reports, artifact_diff). All calls
// come from the benchmark's main thread, so the recorder is single-threaded.
// Spans of one cell share its id. Nothing is written until the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

struct Span {
  const char* name;
  const char* layer;     ///< the layer metric this span's self time counts to
  std::uint32_t cell;    ///< cell id; 0 for work outside any cell
  std::int32_t parent;   ///< index of the enclosing span, -1 at top level
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  /// Spans are recorded only while enabled; a disabled Scope costs a branch.
  bool enabled = false;
  /// Id given to spans opened from now on (set per cell by the caller).
  std::uint32_t cell = 0;

  std::int32_t open(const char* name, const char* layer);
  void close(std::int32_t idx);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per layer: summed span duration minus the part covered by child spans.
  std::map<std::string, double> self_seconds() const;

  /// Summed duration of the spans with this name, in seconds.
  double total_seconds(const std::string& name) const;

  /// Write every span as Chrome trace_event JSON ("X" events, one track),
  /// with the per-layer self times under "otherData".
  void write_chrome(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::int32_t top_ = -1;  ///< innermost open span
};

Tracer& tracer();

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(const char* name, const char* layer)
      : idx_(tracer().enabled ? tracer().open(name, layer) : -1) {}
  ~Scope() {
    if (idx_ >= 0) tracer().close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t idx_;
};

/// Monotonic nanoseconds (CLOCK_MONOTONIC, same clock as Python's
/// time.monotonic(), so run.py can time set-up from before the exec).
std::int64_t now_ns();

}  // namespace hostbench
