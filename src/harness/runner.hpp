// Experiment runner shared by every benchmark binary: builds an app and a
// protocol suite, runs the simulation, and returns the run statistics plus
// handles to protocol-internal detail (LAP scores) for the tables that
// need them.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "aec/suite.hpp"
#include "apps/registry.hpp"
#include "common/params.hpp"
#include "common/stats.hpp"
#include "erc/protocol.hpp"
#include "tmk/protocol.hpp"

namespace aecdsm::trace {
class Recorder;
}

namespace aecdsm::harness {

struct ExperimentResult {
  RunStats stats;
  /// "ok" for a completed cell; BatchRunner marks cells that exceeded
  /// --cell-timeout as "timeout" and fail-fast-cancelled ones as "skipped"
  /// (their stats/lap are then meaningless and serialize as null).
  std::string status = "ok";
  /// Per-lock LAP scores, materialized at the end of the run (or rebuilt
  /// from the cell cache). Everything a bench report needs beyond RunStats
  /// lives here, so a cache hit is indistinguishable from a fresh run.
  std::map<LockId, policy::LapScores> lap_scores;
  /// True when this result was served from the cell cache instead of being
  /// simulated; the protocol handles below are then null.
  bool from_cache = false;
  /// Set when the run used AEC (either variant): LAP scores & lock records.
  std::shared_ptr<const aec::AecShared> aec;
  /// Set when the run used TreadMarks: scoring-only LAP instances.
  std::shared_ptr<const tmk::TmShared> tm;
  /// Set when the run used Munin-ERC: scoring-only LAP instances.
  std::shared_ptr<const erc::ErcShared> erc;
};

/// `protocol` names any policy in the registry (policy/policy.hpp): the
/// legacy presets "AEC", "AEC-noLAP", "TreadMarks", "Munin-ERC" plus any
/// hybrid (e.g. "AEC-TmkBarrier"). Unknown names throw a SimError listing
/// every registered policy.
/// A positive `wall_timeout_sec` aborts the simulation with TimeoutError
/// once that much host time has elapsed. A non-null `recorder` captures the
/// run's event timeline (trace/recorder.hpp) without perturbing it.
ExperimentResult run_experiment(const std::string& protocol, const std::string& app,
                                apps::Scale scale, const SystemParams& params,
                                std::uint64_t seed = 42,
                                double wall_timeout_sec = 0.0,
                                trace::Recorder* recorder = nullptr);

/// The paper's simulated testbed: Table 1 defaults, 16 processors.
SystemParams paper_params();

}  // namespace aecdsm::harness
