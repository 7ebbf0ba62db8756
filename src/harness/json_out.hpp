// Structured results input/output for the batch experiment runner.
//
// json::Value (common/json.hpp, aliased here as harness::json) is a minimal
// ordered JSON document tree — objects preserve insertion order and doubles
// print in shortest round-trip form, so a batch document is byte-identical
// across runs and across --jobs settings (the determinism tests rely on
// this). The to_json overloads serialize the full RunStats breakdown plus
// per-lock LAP scores; the from_json counterparts reconstruct them from a
// parsed document, which is how the cell result cache (harness/cellcache)
// serves finished cells without re-simulating.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/json.hpp"
#include "common/params.hpp"
#include "common/stats.hpp"
#include "harness/runner.hpp"
#include "policy/lap.hpp"

namespace aecdsm::harness {

namespace json = ::aecdsm::json;

json::Value to_json(const TimeBreakdown& t);
json::Value to_json(const DiffStats& d);
json::Value to_json(const FaultStats& f);
json::Value to_json(const MsgStats& m);
json::Value to_json(const SyncStats& s);
json::Value to_json(const TransportStats& t);
json::Value to_json(const OverlapStats& o);
json::Value to_json(const RecoveryStats& r);
json::Value to_json(const LockMgrStats& l);
json::Value to_json(const RunStats& r);
json::Value to_json(const SystemParams& p);

/// Per-lock LAP scores of a finished run plus the event-weighted total;
/// a null Value when the run's protocol records no scores.
json::Value lap_json(const ExperimentResult& r);

/// Rebuild a RunStats from its to_json form. Derived members ("aggregate",
/// "others", "total") are ignored — they are recomputed on the next
/// serialization, so to_json(from_json(x)) == x byte-for-byte.
RunStats run_stats_from_json(const json::Value& v);

/// Rebuild the per-lock LAP score map from a lap_json value (the "locks"
/// array); a null value yields an empty map.
std::map<LockId, policy::LapScores> lap_scores_from_json(const json::Value& v);

}  // namespace aecdsm::harness
