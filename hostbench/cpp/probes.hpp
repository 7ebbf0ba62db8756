// Unit-cost probes: the host cost of one operation of each layer, timed by
// calling the layer's public functions directly. Each probe is shaped to
// the workload it explains (16 or 256 threads and mesh nodes, 4096 or 256 B
// pages, the workload's lock strategies and queue depth), takes its inputs
// from the benchmark seed, and reports the median of several repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace hostbench {

struct ProbeShape {
  int nodes = 16;                 ///< simulated processors and mesh nodes
  std::size_t page_bytes = 4096;
  std::vector<std::string> strategies{"central"};
  std::size_t queue_depth = 8;    ///< waiters seen by pick_waiter
  std::uint64_t seed = 0;
};

struct UnitCosts {
  double switch_ns = 0;       ///< CoThread resume -> yield round trip
  /// OS context switches (getrusage) per round trip, to turn a run's
  /// switch count into round trips.
  double switch_ctx_per_trip = 0;
  double spawn_us = 0;        ///< create, run and join one CoThread
  double dispatch_ns = 0;     ///< one empty event schedule + run
  double mesh_send_ns = 0;    ///< one MeshNetwork::send plus its delivery
  double diff_create_ns = 0;  ///< per page
  double diff_apply_ns = 0;   ///< per page
  double diff_merge_ns = 0;   ///< per pair of diffs of one page
  double lap_update_ns = 0;   ///< one LockLap::compute_update_set
  double pick_waiter_ns = 0;  ///< one locks::pick_waiter
  double cache_store_ms = 0;  ///< per cell
  double cache_load_ms = 0;   ///< per cell
  double json_parse_ms = 0;   ///< the committed bench_all baseline
  double json_dump_ms = 0;    ///< the committed bench_all baseline
  double artifact_diff_ms = 0;  ///< load one bench_all document + diff
  double report_ms = 0;       ///< every bench report plus the combined document
};

/// `paper` is a paper_sweep plan (its baseline text and bench instances
/// feed the harness probes); `cells` are the cells the cache probes store
/// and load; `work_dir` holds the probe's throw-away cache.
UnitCosts run_probes(const ProbeShape& shape, const Plan& paper,
                     const std::vector<CellOutput>& cells, const std::string& work_dir);

}  // namespace hostbench
