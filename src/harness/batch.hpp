// Batch experiment subsystem: a declarative ExperimentPlan over
// (protocol, app, scale, params, seed) cells, executed concurrently on a
// thread pool by BatchRunner. Cells are independent deterministic
// simulations, so results are collected in plan order and the emitted JSON
// document is identical for any --jobs setting.
//
// Every bench binary routes through run_bench(): it parses the shared CLI
// (--jobs N / AECDSM_JOBS, --json PATH | - | --no-json), runs the plan,
// writes one JSON artifact per batch, and hands the plan-ordered results to
// the bench's report callback for the human-readable tables.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/params.hpp"
#include "harness/cellcache.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"

namespace aecdsm::harness {

/// One independent simulation in a batch.
struct ExperimentCell {
  std::string label;  ///< row key for reports and the JSON document
  std::string protocol;
  std::string app;
  apps::Scale scale = apps::Scale::kDefault;
  SystemParams params;
  std::uint64_t seed = 42;
};

/// An ordered set of cells; the whole Figure/Table cross-product of a bench.
struct ExperimentPlan {
  std::string name;  ///< batch name; default JSON artifact is "<name>.json"
  std::vector<ExperimentCell> cells;

  /// Append a cell (label defaults to "protocol/app") and return it for
  /// per-cell tweaks: plan.add("AEC", "IS").params.update_set_size = 3;
  ExperimentCell& add(std::string protocol, std::string app,
                      apps::Scale scale = apps::Scale::kDefault,
                      SystemParams params = SystemParams{}, std::uint64_t seed = 42);
};

struct BatchOptions {
  /// Worker threads; 0 resolves via AECDSM_JOBS then hardware_concurrency.
  int jobs = 0;
  /// JSON artifact destination: "" = "<plan.name>.json", "-" = stdout,
  /// "off" = disabled.
  std::string json_path;
  /// Cell cache location; "" resolves via CellCache::resolve_dir.
  std::string cache_dir;
  /// Disable the cell cache entirely (no loads, no stores, no telemetry).
  bool no_cache = false;
  /// Ignore existing cached cells but overwrite them with fresh results.
  bool refresh = false;
  /// Abort the batch promptly on the first cell failure instead of letting
  /// the remaining cells run.
  bool fail_fast = false;
  /// Memory budget in MiB for concurrently running cells (0 = unbounded).
  /// Workers reserve each cell's estimated footprint (cell_mem_weight)
  /// before simulating and block while the reservation would overflow the
  /// budget. Default comes from AECDSM_MAX_MEM; --max-mem overrides it.
  std::size_t max_mem_mb = 0;
  /// Per-cell wall-clock limit in seconds (0 = none). A cell that exceeds
  /// it is marked with status "timeout" in the results/artifact instead of
  /// hanging the batch; with --fail-fast the remaining cells are cancelled.
  double cell_timeout_sec = 0.0;
  /// Write one combined Chrome trace_event file here covering every cell
  /// (one Perfetto process per cell, one track per node). "" = off.
  std::string trace_path;
  /// Write per-cell trace files (<label>.trace.json in the aecdsm-trace-v1
  /// schema plus <label>.perfetto.json) into this directory. "" = off.
  std::string trace_dir;
  /// Debug: after serving cache hits, re-simulate the first warm hit cold
  /// and fail the batch (SimError) unless the artifacts match byte for
  /// byte. Guards the cache against key collisions and stale blobs.
  bool verify_cache = false;

  /// Either trace sink requested. Tracing forces every cell to simulate —
  /// the cell cache is bypassed entirely (no loads, no stores, no
  /// telemetry), because a cached result has no timeline to replay and
  /// trace state must never leak into cached artifacts.
  bool tracing() const { return !trace_path.empty() || !trace_dir.empty(); }
};

/// Strip the shared batch flags (--jobs, --json, --no-json, --cache-dir,
/// --no-cache, --refresh, --fail-fast) out of argc/argv, leaving
/// unrecognized arguments in place for the caller. --help prints usage and
/// exits.
BatchOptions parse_batch_cli(int& argc, char** argv);

/// What one BatchRunner::run did, for cache-effectiveness checks: every
/// cell is either served from cache or simulated (failed cells count as
/// simulated; skipped ones — fail-fast cancellations — as neither).
struct BatchRunInfo {
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t simulated = 0;
  std::size_t skipped = 0;
  /// Cells aborted by --cell-timeout (they count as simulated as well).
  std::size_t timeouts = 0;
  /// Warm hits re-simulated and compared byte-for-byte (--verify-cache).
  std::size_t cache_verified = 0;
  /// Engine events and host wall time summed over freshly simulated cells
  /// (cache hits carry no event count), for events/sec telemetry.
  std::uint64_t engine_events = 0;
  std::uint64_t sim_wall_us = 0;
};

/// Estimated peak host-memory footprint of one cell in bytes: the shared
/// image plus one private copy per processor (twins, caches, diff logs all
/// scale with it), plus a flat allowance for simulator bookkeeping. Only an
/// ordering heuristic for --max-mem — not a guarantee.
std::size_t cell_mem_weight(const ExperimentCell& cell);

/// Counting gate that bounds the summed weight of concurrently admitted
/// cells. A cap of zero disables the gate entirely. Weights above the cap
/// are clamped to it, so an oversized cell still runs — alone.
class MemGate {
 public:
  explicit MemGate(std::size_t cap_bytes) : cap_(cap_bytes) {}

  bool enabled() const { return cap_ != 0; }

  /// Block until `weight` (clamped to the cap) fits, reserve it, and return
  /// the amount actually reserved — pass that to release() when done.
  std::size_t acquire(std::size_t weight);

  /// Non-blocking acquire; returns the reserved amount, or 0 with no
  /// reservation made when the gate is full. (A disabled gate returns 0
  /// too: there is nothing to release either way.)
  std::size_t try_acquire(std::size_t weight);

  void release(std::size_t reserved);

  /// Currently reserved bytes (for tests).
  std::size_t used() const;

 private:
  std::size_t cap_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t used_ = 0;
};

/// Longest-processing-time-first dispatch order of the cache misses, from
/// the per-cell wall-clock telemetry of previous runs: cells with no
/// recorded duration go first (they may be the heavy ones), then known
/// cells in descending duration; ties keep their incoming relative order,
/// so the schedule is deterministic. Empty telemetry leaves the order
/// untouched. `hashes[i]` is the telemetry key of cell index `misses[j]==i`.
std::vector<std::size_t> lpt_schedule(std::vector<std::size_t> misses,
                                      const std::vector<std::string>& hashes,
                                      const TelemetryMap& telemetry);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions opts = {});

  /// Execute every cell, up to jobs() concurrently. Cells whose inputs are
  /// memoized in the cell cache are served without simulating; the misses
  /// are scheduled longest-known-wall-clock-first (from the cache's
  /// telemetry of previous runs) to cut tail latency. Results come back in
  /// plan order regardless of completion order; the first cell failure (in
  /// plan order) is rethrown after all in-flight cells finish.
  std::vector<ExperimentResult> run(const ExperimentPlan& plan);

  /// Cache/simulation accounting of the most recent run().
  const BatchRunInfo& last_run_info() const { return info_; }

  /// Deterministic JSON document for a finished batch (schema
  /// "aecdsm-batch-v1"): plan metadata plus, per cell, the full RunStats
  /// breakdown and LAP scores. Independent of the jobs setting.
  static json::Value document(const ExperimentPlan& plan,
                              const std::vector<ExperimentResult>& results);

  /// Emit `doc` according to the options (file, stdout, or disabled).
  void write_json(const ExperimentPlan& plan, const json::Value& doc) const;

  int jobs() const { return jobs_; }

 private:
  /// --verify-cache: re-simulate `cell` cold (same engine-thread setting)
  /// and throw SimError unless its serialized stats and LAP scores match
  /// the warm result byte for byte.
  void verify_warm_hit(const ExperimentCell& cell,
                       const ExperimentResult& warm) const;

  BatchOptions opts_;
  int jobs_;
  BatchRunInfo info_;
};

/// Results of a batch, handed to a bench's report callback. `doc` is the
/// JSON document about to be written; reports may attach derived sections.
struct BenchReport {
  const ExperimentPlan& plan;
  const std::vector<ExperimentResult>& results;
  json::Value& doc;

  /// Result of the first cell whose label matches (checked).
  const ExperimentResult& result(const std::string& label) const;
};

/// Shared main() body for the bench binaries: parse the batch CLI, run the
/// plan, print tables via `report`, write the JSON artifact. Returns the
/// process exit code.
int run_bench(int argc, char** argv, const ExperimentPlan& plan,
              const std::function<void(BenchReport&)>& report);

}  // namespace aecdsm::harness
