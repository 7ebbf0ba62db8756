// The benchmark's three workloads: their set-up, one timed pass, and the
// check of every cell against a known-good result.
//
//   paper_sweep  the unique cells of the bench_all plan, simulated cold;
//                each is byte-compared with bench/baselines/bench_all.json.
//   lock256      {AEC, Munin-ERC} x {hotspot, migratory} x {central, mcs,
//                hier} on a 16x16 mesh with bench_lock_scale's cell params;
//                each is compared with a fingerprint committed in
//                hostbench/data/fingerprints.json.
//   warm_replay  the paper_sweep plan served from a private cell cache that
//                set-up fills; the pass rebuilds every per-bench report and
//                document plus the combined one and diffs it against the
//                committed baseline.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness/artifact_diff.hpp"
#include "harness/bench_registry.hpp"
#include "harness/cellcache.hpp"

namespace hostbench {

namespace harness = aecdsm::harness;
namespace json = aecdsm::json;

inline constexpr const char* kPaperSweep = "paper_sweep";
inline constexpr const char* kLock256 = "lock256";
inline constexpr const char* kWarmReplay = "warm_replay";

/// lock256 spec seeds are 17 + v (hotspot) and 7 + v (migratory) for the
/// variant v = seed % kLockVariants; v = 0 is bench_lock_scale's workload.
/// Every variant has committed fingerprints.
inline constexpr std::uint64_t kLockVariants = 16;

/// Host wall-clock limit of one simulated cell; a cell past it fails.
inline constexpr double kCellTimeoutSec = 60.0;

/// Default host wall-clock limit of one run, from process start; run.py
/// passes the time it has left instead. A pass that reaches the limit stops:
/// its unrun cells are not attempted and its times are not reported.
inline constexpr double kDefaultTimeLimitSec = 150.0;

/// FNV-1a 64, the hash CellCache and artifact_diff use for content keys.
std::uint64_t fnv1a64(const std::string& s);

/// The known-good output of one cell: the exact serialized bytes (paper
/// cells) or their FNV-1a 64 and length (lock256 cells).
struct Expected {
  std::string bytes;
  std::uint64_t fnv = 0;
  std::uint64_t length = 0;
};

struct BenchCell {
  harness::ExperimentCell cell;
  std::optional<Expected> expected;  ///< missing => the cell fails
  /// Engine events of this cell at the commit the fingerprints were taken
  /// from; warm_replay serves cells from cache, which carry no event count.
  std::uint64_t committed_events = 0;
};

/// The CPUs timed work runs on, one at a time. The engine and a cell's
/// processor threads hand off through a mutex and condvar, so a cell runs
/// pinned to one CPU; unpinned, the scheduler's placement of the threads
/// dominates the timings' spread. The speed of each virtual CPU of a shared
/// host drifts by up to 2x over tens of seconds, each on its own, so a run
/// takes the allowed CPUs in turn rather than staying on one.
struct CpuRotation {
  std::vector<int> cpus;  ///< the allowed set when the process started
  std::size_t turn = 0;
  /// Pin the calling thread, and the threads it starts, to the next CPU.
  void next();
};

/// One bench of the bench_all union and where its cells sit in `cells`.
struct BenchInstance {
  const harness::BenchDef* def;
  harness::ExperimentPlan plan;
  std::vector<std::size_t> cell_index;
};

/// Everything set-up builds before the first timed cell.
struct Plan {
  std::string workload;
  std::vector<BenchCell> cells;
  std::vector<BenchInstance> instances;  ///< paper_sweep / warm_replay
  std::size_t plan_cells = 0;            ///< bench_all cells before dedup
  std::string baseline_text;             ///< the committed bench_all.json
  harness::artifact_diff::Document baseline_doc;  ///< warm_replay
  std::unique_ptr<harness::CellCache> cache;      ///< warm_replay
  std::int64_t deadline_ns = std::numeric_limits<std::int64_t>::max();  ///< the run's time limit
  CpuRotation cpus;  ///< one turn per simulated cell, or per warm_replay pass
};

struct SetupOptions {
  std::string workload;
  std::uint64_t seed = 0;
  std::string repo;      ///< root holding bench/baselines and hostbench/data
  std::string work_dir;  ///< scratch space inside the checkout
};

/// Build the workload's plan, load what its check needs and, for
/// warm_replay, fill a fresh private cell cache. Throws on a missing input.
Plan set_up(const SetupOptions& opt);

/// Deterministic sums over the cells of one pass.
struct Counts {
  std::uint64_t cells = 0;
  std::uint64_t events = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t threads = 0;  ///< simulated processors spawned
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t diffs_applied = 0;
  std::uint64_t diff_bytes = 0;
  std::uint64_t diffs_merged = 0;  ///< merge results produced
  std::uint64_t faults = 0;
  std::uint64_t lap_predictions = 0;
  std::uint64_t lap_hits = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t grants = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t direct_handoffs = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t queue_depth_sum = 0;
};

/// Stats and LAP scores of a cell, kept after a pass for the cache probes.
struct CellOutput {
  harness::ExperimentCell cell;
  harness::ExperimentResult result;  ///< protocol handles dropped
};

struct PassResult {
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< "label: reason", for the log
  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;
  double events_per_s = 0;  ///< warm_replay: committed events served per second
  std::vector<CellOutput> outputs;  ///< simulated cells, when keep_outputs
  bool cut = false;  ///< stopped at Plan::deadline_ns; not a full pass
};

/// One timed pass. `order_seed` permutes the order the cells run in;
/// `keep_outputs` keeps each simulated cell's stats for the cache probes.
PassResult run_pass(Plan& plan, std::uint64_t order_seed, bool keep_outputs);

/// Serialized form compared against the known-good output of a cell.
std::string serialize_cell(const harness::ExperimentResult& r);

/// The paper cells rebuilt from the committed baseline, as the cell cache
/// would serve them.
std::vector<CellOutput> baseline_outputs(const Plan& plan);

/// Run every bench report over `results` (indexed like plan.cells) and
/// assemble the combined bench_all document.
json::Value build_reports(const Plan& plan,
                          const std::vector<harness::ExperimentResult>& results);

/// Simulate every lock256 variant and the paper cells once and write the
/// fingerprint file (run at a known-good commit).
void write_fingerprints(const SetupOptions& opt, const std::string& path);

}  // namespace hostbench
