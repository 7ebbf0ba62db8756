// Run-wide AEC state: the lock table (policy/lock_manager.hpp — records
// conceptually resident on each lock's manager node: all handlers that
// touch a lock's record run as services on that node, so the *timing* is
// distributed even though the storage is shared), the barrier manager's
// episode state, and the per-page home map.
#pragma once

#include <cstdint>
#include <vector>

#include "common/params.hpp"
#include "common/types.hpp"
#include "policy/lock_manager.hpp"
#include "policy/policy.hpp"

namespace aecdsm::aec {

/// Per-lock information a processor reports on barrier arrival: the acquire
/// counter of its last ownership and the pages its merged diffs cover.
/// Routing diffs from these lists (highest counter wins per page) makes the
/// barrier independent of release messages still in flight to lock managers.
struct ArrivalLockInfo {
  LockId lock = 0;
  std::uint32_t counter = 0;
  std::vector<PageId> pages;
};

/// Barrier manager episode state (lives on node 0).
struct BarrierEpisode {
  struct Arrival {
    bool here = false;
    std::vector<ArrivalLockInfo> lock_info;
    std::vector<PageId> outside_pages;   ///< pages this proc wrote outside CSes
    std::vector<std::uint8_t> valid_map; ///< bitmap of pages valid at arrival
  };
  std::vector<Arrival> arrival;
  int arrived = 0;
  int completed = 0;
  std::uint32_t episode = 0;
};

class AecProtocol;

struct AecShared {
  AecShared(const SystemParams& p, policy::ConsistencyPolicy pol)
      : params(p), policy(std::move(pol)), locks(p, policy), home(0) {}

  const SystemParams params;  ///< by value: outlives the Machine for post-run reads
  const policy::ConsistencyPolicy policy;

  /// Node protocol instances, for engine-side cross-node handler access.
  std::vector<AecProtocol*> nodes;

  /// Lock records and strategy counters, sharded by manager node.
  policy::LockTable locks;

  BarrierEpisode barrier;

  /// Current home node per page (initially page % nprocs); reassigned by
  /// the barrier manager and distributed with the episode directives.
  std::vector<ProcId> home;
};

}  // namespace aecdsm::aec
