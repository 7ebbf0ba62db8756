// The lock-manager core shared by the two manager-based lock schemes: AEC's
// grant chain (§2–3 of the paper: FIFO waiting queue, LAP scoring at every
// grant) and the Munin-ERC baseline's FIFO manager. Both are the same
// mechanism with different grant payloads, so it is written once here:
//
//   * LockTable — the per-lock manager records (FIFO queue, LAP instance,
//     tenure counters, crash serials, chain custody), sharded by manager
//     node, plus the lock-strategy counters;
//   * LockManagerEngine — a PolicyEngine that runs both halves of the lock
//     protocol: the requester side (request/release sends with crash
//     serials and tracked replay, grant acceptance, mcs successor links)
//     and the manager side (stale-manager bounce, serial dedup and
//     idempotent grant rebuild, queue/grant/release bookkeeping through
//     locks::pick_waiter / locks::note_grant, the release ack, the mcs
//     LINK and direct hand-off) plus the crash-failover hooks.
//
// A protocol keeps only its payload: on_grant (what the grantee does with
// the grant), on_predict (observing the LAP prediction at a grant) and its
// LockWire message shapes. Every handler runs as a service on the node the
// cost lands on; the records live in shared host memory (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/params.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "locks/strategy.hpp"
#include "policy/engine.hpp"
#include "policy/lap.hpp"
#include "policy/policy.hpp"

namespace aecdsm::policy {

/// Manager-side record of one lock.
struct LockRecord {
  LockRecord(int nprocs, int update_set_size, double affinity_threshold)
      : lap(nprocs, update_set_size, affinity_threshold),
        update_set(static_cast<std::size_t>(nprocs)) {}

  bool taken = false;
  ProcId owner = kNoProc;          ///< current owner while taken
  ProcId last_releaser = kNoProc;  ///< kNoProc right after a barrier (chain reset)
  std::uint32_t counter = 0;       ///< acquire counter; ++ per grant (tenure id)
  /// Acquisition counter of the last release — the counter its push carries.
  /// Grants ship it so acquirers can tell the announced push from a stale
  /// one left over from an earlier ownership of the same processor.
  std::uint32_t last_release_counter = 0;
  std::uint32_t epoch = 0;         ///< barrier episode of the last chain reset

  /// The real FIFO waiting queue, the virtual queue, the affinity history
  /// and the Table 3 scores.
  LockLap lap;

  /// U_l(p) as computed at p's last grant (shipped in the grant reply; the
  /// releaser pushes its merged diffs to this set).
  std::vector<std::vector<ProcId>> update_set;

  /// Cumulative, per barrier step: which processor holds the freshest
  /// merged diff of each page modified under this lock (released pages;
  /// always empty under Munin-ERC, whose releases carry none).
  std::map<PageId, ProcId> diff_holder;

  // Crash-failover dedup state, populated only when a crash schedule
  // exists. Requests and releases then carry a per-(node, lock) monotonic
  // serial; the manager records the serial pending per requester, the
  // serial echoed at its grant, and the serial of its last processed
  // release, so replayed or bounced duplicates are recognized and dropped
  // (or answered idempotently) instead of corrupting the FIFO state.
  std::map<ProcId, std::uint64_t> req_serial;
  std::map<ProcId, std::uint64_t> granted_serial;
  std::map<ProcId, std::uint64_t> released_serial;

  /// hier strategy: consecutive grants that skipped a cross-cohort FIFO
  /// head (locks::pick_waiter's fairness budget).
  int hier_streak = 0;
};

/// Run-wide lock records, sharded by manager node (lock % nprocs until a
/// crash failover re-elects). A record's shard says which manager holds
/// its custody: handlers reach it through Machine::lock_manager(l), and
/// failover reads the crashed manager's custody through find(l, crashed)
/// (lock_sharers) before migrate() moves it to the successor.
struct LockTable {
  LockTable(const SystemParams& p, const ConsistencyPolicy& pol);

  const locks::Strategy strategy;  ///< locks.strategy, parsed once
  /// Collect LockMgrStats? Off for the default central/no-stats config so
  /// artifacts stay byte-identical to pre-locks baselines.
  const bool collect_stats;

  std::vector<std::map<LockId, LockRecord>> shards;

  /// Strategy counters, sharded like the records: manager-side paths
  /// update the manager node's slot, the mcs direct hand-off the handler
  /// node's slot. run_app sums the shards.
  std::vector<LockMgrStats> stats;

  /// Record of `l` in manager `mgr`'s shard (created on first use). After a
  /// failover the record lives in the re-elected manager's shard; handlers
  /// pass Machine::lock_manager(l).
  LockRecord& at(LockId l, ProcId mgr);

  /// Find-only variant: nullptr when the record was never created there.
  LockRecord* find(LockId l, ProcId mgr);

  /// Crash failover: move lock `l`'s record between manager shards.
  /// Custody (affinity history, diff holders, owner) survives the fail-stop
  /// window because the storage is shared host memory.
  void migrate(LockId l, ProcId from, ProcId to);

 private:
  const int nprocs_;
  const int update_set_size_;
  /// Disabling the affinity technique is modeled as an unreachable
  /// inclusion threshold (the affinity set is then always empty).
  const double affinity_threshold_;
};

/// One protocol's lock-message shapes: service costs in units of
/// list_processing_per_elem, sizes in bytes beyond kCtl. Compile-time
/// constants of each protocol, not options.
struct LockWire {
  int notice_svc;           ///< acquire notice
  int request_svc;          ///< lock request (and its crash replay)
  std::size_t grant_bytes;  ///< grant header; +12 bytes per holder entry
  int grant_svc;            ///< grant service; +1 per holder entry
  /// mcs direct hand-off service; +1 per released page. Its bytes are the
  /// release list (8 per page) plus the grant delta (grant_bytes + 12 per
  /// page).
  int handoff_svc;
};

/// Grant reply: the tenure's counter and crash serial, plus the chain state
/// AEC consumes (left at its defaults by Munin-ERC's bare grant).
struct Grant {
  std::uint32_t counter = 0;
  std::uint64_t serial = 0;
  ProcId last_releaser = kNoProc;
  std::uint32_t release_counter = 0;
  std::map<PageId, ProcId> holders;
  std::vector<ProcId> update_set;
  /// The grantee is in the last releaser's update set: a push of the
  /// merged chain diffs is on its way (LAP-pushing policies only).
  bool in_update_set = false;
};

class LockManagerEngine : public PolicyEngine {
 public:
  /// This node's shard of the lock-strategy counters (summed by run_app).
  LockMgrStats lockmgr_stats() const override {
    return table_.stats[static_cast<std::size_t>(self_)];
  }

 protected:
  LockManagerEngine(dsm::Machine& m, ProcId self, ConsistencyPolicy pol,
                    LockTable& table, const LockWire& wire);

  // --- Requester side (application thread) -----------------------------------

  /// Acquire notice to the manager (LAP virtual queue).
  void send_notice(LockId l);
  /// Send the lock request; the caller then waits for its on_grant.
  void send_request(LockId l);
  /// Hand the lock on: directly to a linked mcs successor, else through the
  /// manager. `pages` are the releaser's merged chain pages, `episode` the
  /// releaser's barrier step (Munin-ERC: none, 0).
  void send_release(LockId l, std::vector<PageId> pages, std::uint32_t episode);

  /// Acquire counter of this node's current (or last) tenure of `l`.
  std::uint32_t granted_counter(LockId l) { return tenures_[l].grant_counter; }

  // --- Payload hooks ------------------------------------------------------------

  /// Engine-side at the grantee, once the grant is accepted.
  virtual void on_grant(LockId l, Grant g) = 0;
  /// The LAP predicted `to`'s update set at a grant, on node `at`.
  virtual void on_predict(LockId /*l*/, ProcId /*at*/,
                          std::size_t /*update_set_size*/) {}

  LockTable& table_;

 private:
  /// Requester-side state of one lock.
  struct Tenure {
    std::uint32_t grant_counter = 0;
    /// mcs: successor links keyed by the tenure counter they chain behind.
    /// A LINK(K -> succ) means: the tenure whose grant carries counter K
    /// hands the lock directly to `succ`. Tenure counters are globally
    /// unique per lock, so an entry is only ever consumed by the node whose
    /// grant_counter equals its key; stale keys are pruned at the next grant.
    std::map<std::uint32_t, ProcId> mcs_links;
    // Crash-failover state (all zero in crash-free runs). The request mints
    // a per-(node, lock) serial; the grant must echo it to be accepted
    // (duplicate grants from a pre-crash manager and its successor are
    // otherwise indistinguishable), and the release reuses it so the
    // manager can dedup replays.
    std::uint64_t awaiting_serial = 0;  ///< grant we are waiting for
    std::uint64_t cur_serial = 0;       ///< serial of the current tenure
    std::uint64_t req_op_id = 0;        ///< registry id of the pending request op
  };

  LockManagerEngine& peer_core(ProcId p) {
    return static_cast<LockManagerEngine&>(peer_engine(p));
  }

  /// mcs LINKs and direct hand-offs are on. Disabled under a crash
  /// schedule: hand-offs then stay on the manager path the failover chain
  /// replays.
  bool mcs_direct() const {
    return table_.strategy == locks::Strategy::kMcs && !crash_scheduled();
  }

  // Engine-side receive handlers.
  void recv_grant(LockId l, Grant g);
  /// mcs: the manager tells the predecessor (tenure `pred_counter`) who its
  /// queue successor is, so its release can hand the lock over directly.
  void recv_mcs_link(LockId l, std::uint32_t pred_counter, ProcId succ);
  /// mcs: direct lock hand-off from the releaser, bypassing the manager.
  /// Performs the manager-record bookkeeping on the successor's node;
  /// self-validates against the shared record and falls back to forwarding
  /// a plain release to the manager on mismatch.
  void recv_direct_handoff(LockId l, ProcId releaser, std::vector<PageId> pages,
                           std::uint32_t episode);

  // Manager handlers (engine-side, as services on the manager node). Each
  // carries `mgr_at`, the node the message was addressed to: after a
  // failover re-elected the manager meanwhile, the handler forwards one hop
  // instead of touching a shard another node's worker owns. `serial` is
  // the crash-failover dedup serial (0 when no crash schedule exists).
  void mgr_handle_request(LockId l, ProcId requester, std::uint64_t serial,
                          ProcId mgr_at);
  void mgr_handle_release(LockId l, ProcId releaser, std::vector<PageId> pages,
                          std::uint32_t episode, std::uint64_t serial,
                          ProcId mgr_at);
  void mgr_handle_notice(LockId l, ProcId p, ProcId mgr_at);
  /// Grant a fresh tenure to `to` and send the reply.
  void mgr_grant(LockId l, LockRecord& rec, ProcId to);
  /// Send (or re-send) the grant reply from the current record state; the
  /// idempotent half of mgr_grant, also used to answer a replayed request
  /// whose original grant came from the crashed manager.
  void mgr_send_grant(LockId l, LockRecord& rec, ProcId to);
  /// Crash-schedule-only release confirmation (clears the releaser's
  /// tracked op; without it a later manager crash would replay the release).
  void mgr_send_release_ack(LockId l, ProcId releaser, std::uint64_t serial);

  /// LAP bookkeeping of a grant to `to` on node `at`: score the transfer,
  /// store the predicted update set, notify on_predict.
  void predict(LockId l, LockRecord& rec, ProcId to, ProcId at);
  /// Release bookkeeping shared by the manager path and the hand-off.
  static void note_release(LockRecord& rec, ProcId releaser,
                           const std::vector<PageId>& pages,
                           std::uint32_t episode);
  Grant grant_of(const LockRecord& rec, ProcId to, std::uint64_t serial) const;

  // Crash failover (PolicyEngine hooks).
  std::vector<ProcId> lock_sharers(LockId l, ProcId crashed) override;
  void migrate_lock_state(LockId l, ProcId from, ProcId to) override;

  const LockWire wire_;
  std::map<LockId, Tenure> tenures_;
};

}  // namespace aecdsm::policy
