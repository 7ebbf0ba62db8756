// Run driver: wires an App, a protocol suite and a parameter block into a
// Machine, executes the simulation to completion, and collects RunStats.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/params.hpp"
#include "common/stats.hpp"
#include "dsm/app.hpp"
#include "dsm/machine.hpp"
#include "dsm/protocol.hpp"

namespace aecdsm::dsm {

/// A named way of building one Protocol instance per node. The factory is
/// called once per processor, in pid order, after app setup; factories that
/// need shared manager state create it on first call.
struct ProtocolSuite {
  std::string name;
  std::function<std::unique_ptr<Protocol>(Machine&, ProcId)> make;
};

struct RunConfig {
  SystemParams params;
  std::uint64_t seed = 42;
  /// Abort the simulation with TimeoutError once this much host wall-clock
  /// time has elapsed (0 = no limit). Used by BatchRunner --cell-timeout.
  double wall_timeout_sec = 0.0;
  /// Optional trace sink (trace/recorder.hpp); installed on the machine
  /// before the run. Purely observational — a traced run is cycle-identical
  /// to an untraced one. Not part of SystemParams on purpose: trace state
  /// must never fold into cell content hashes or cached artifacts.
  trace::Recorder* recorder = nullptr;
};

/// Execute `app` under `suite`; throws SimError on deadlock or invariant
/// violation. The returned stats include whether the app's oracle check
/// passed (RunStats::result_valid).
RunStats run_app(App& app, const ProtocolSuite& suite, const RunConfig& config);

/// Mark pages valid at their round-robin initial owner (page % nprocs) —
/// the initial data distribution both protocols assume.
void init_round_robin_validity(Machine& m, ProcId self);

}  // namespace aecdsm::dsm
