// TreadMarks-style lazy release consistency — the paper's baseline (§4.3).
//
// Implemented machinery:
//  * vector timestamps and intervals; an interval ends whenever this node
//    serves a lock grant, releases a lock, acquires a lock, or arrives at a
//    barrier;
//  * write notices: at interval end every still-dirty page enters the
//    interval's notice entry; lock grants carry the entries the acquirer
//    has not seen (vector-clock filtering), which invalidate pages;
//  * lazy diffs: diffs are created at the *writer* only when some processor
//    requests them on an access miss — so diff creation sits on the
//    critical path of both the requester (data time) and the server (ipc
//    time), the behaviour the paper contrasts AEC against;
//  * distributed lock ownership: the static manager forwards a request to
//    its owner hint; non-owners forward along their hand-off pointer;
//    an owner inside its critical section queues the request locally;
//  * barriers: one gather/broadcast round through the manager on node 0,
//    merging vector clocks and distributing the step's write notices.
//
// For the paper's §5.1 robustness claim, the same LAP predictor runs here
// in scoring-only mode (fed by grant events and acquire notices) — it never
// influences TreadMarks' behaviour.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "common/stats.hpp"
#include "dsm/context.hpp"
#include "dsm/machine.hpp"
#include "dsm/protocol.hpp"
#include "dsm/system.hpp"
#include "mem/diff.hpp"
#include "policy/engine.hpp"
#include "policy/lap.hpp"
#include "policy/policy.hpp"
#include "sim/processor.hpp"

namespace aecdsm::tmk {

class TmProtocol;

using VectorTime = std::vector<std::uint32_t>;

/// One interval's write notices: the pages `writer` dirtied in the interval
/// stamped `vt`.
struct NoticeEntry {
  ProcId writer = kNoProc;
  VectorTime vt;
  std::vector<PageId> pages;
};

/// Run-wide TreadMarks state (manager hints, barrier gather, LAP scorer).
struct TmShared {
  TmShared(const SystemParams& p, policy::ConsistencyPolicy pol)
      : params(p),
        policy(std::move(pol)),
        owner_hint(static_cast<std::size_t>(p.num_procs)) {}

  const SystemParams params;
  const policy::ConsistencyPolicy policy;
  std::vector<TmProtocol*> nodes;

  /// Manager-side owner hints (start: manager grants first requester),
  /// sharded by manager node (lock % nprocs until a crash failover
  /// re-elects). A hint's shard says which manager holds its custody:
  /// lock_sharers reads the crashed manager's hint from its shard, and
  /// failover moves it to the successor's.
  std::vector<std::map<LockId, ProcId>> owner_hint;

  /// Owner hints held by manager `mgr` (handlers pass
  /// Machine::lock_manager(l)).
  std::map<LockId, ProcId>& hint_shard(ProcId mgr) {
    return owner_hint[static_cast<std::size_t>(mgr)];
  }

  /// Crash failover: move the owner hint between manager shards.
  void migrate_hint(LockId l, ProcId from, ProcId to) {
    auto node = owner_hint[static_cast<std::size_t>(from)].extract(l);
    if (!node.empty()) owner_hint[static_cast<std::size_t>(to)].insert(std::move(node));
  }

  /// Barrier gather state (node 0). Arrivals carry each processor's vector
  /// time and the notice entries it created since the previous barrier; the
  /// release redistributes to each processor exactly the entries its clock
  /// has not covered (current dirty sets alone would under-report: a lazily
  /// served diff cleans the page while its interval notices still need to
  /// reach everyone).
  struct BarrierGather {
    int arrived = 0;
    VectorTime merged_vt;
    std::vector<VectorTime> arrival_vt;
    std::vector<NoticeEntry> entries;
  } barrier;

  /// Scoring-only LAP instances (paper §5.1: LAP accuracy under TreadMarks),
  /// mutated by events at the manager and at the current owner.
  std::map<LockId, policy::LockLap> lap;

  policy::LockLap& lap_of(LockId l) {
    return lap.try_emplace(l, params.num_procs, params.update_set_size,
                           params.affinity_threshold)
        .first->second;
  }
};

class TmProtocol : public policy::PolicyEngine {
 public:
  TmProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<TmShared> shared);
  ~TmProtocol() override;

  std::string name() const override { return pol_.name; }

  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void acquire(LockId lock) override;
  void release(LockId lock) override;
  void barrier() override;
  void acquire_notice(LockId lock) override;

  const TmShared& shared() const { return *sh_; }

 private:
  /// Lazily created diff. The tag orders creation: for any word written
  /// under a lock chain, fetch-before-write forces the older writer's diff
  /// to be materialized before the newer writer's — at a strictly later
  /// simulated time — so creation-time order is a sound application order
  /// for conflicting words (concurrent diffs touch disjoint words in
  /// data-race-free programs). The tag is therefore (creation time, node,
  /// per-node counter): any refinement of time order works, and this one
  /// needs no cross-node counter. Per-page vector-time tags are
  /// NOT sound here: a page shared by several locks can carry concurrent
  /// intervals whose clock sums tie or invert relative to a single word's
  /// chain.
  struct DiffTag {
    Cycles t = 0;           ///< serving event's simulated time
    ProcId node = kNoProc;  ///< creating node (time tie-break)
    std::uint64_t k = 0;    ///< per-node creation counter
    friend auto operator<=>(const DiffTag&, const DiffTag&) = default;
    friend std::ostream& operator<<(std::ostream& os, const DiffTag& tg) {
      return os << tg.t << "/p" << tg.node << "/" << tg.k;
    }
  };
  struct StoredDiff {
    DiffTag tag;
    mem::Diff diff;
  };

  struct PageState {
    bool ever_valid = false;        ///< frame content is a sound base
    bool dirty = false;             ///< twin present, un-diffed local mods
    std::vector<StoredDiff> stored; ///< diffs this node created for the page
    std::set<ProcId> pending;       ///< writers whose diffs must be fetched
    std::map<ProcId, std::size_t> fetched_upto;  ///< stored-diff index consumed
    /// Creation tag of the newest diff applied to each word. Batches fetched
    /// at different times can interleave creation order (a later batch may
    /// carry an older diff); per-word tags stop stale values from reverting
    /// newer ones. Local writes need no stamp: a conflicting remote write
    /// is always fetched before the local one happens (lock-chain h-b).
    std::vector<DiffTag> word_tag;
  };

  /// A queued lock request. `serial` is the crash-failover dedup serial the
  /// grant must echo (0 in crash-free runs).
  struct Waiter {
    ProcId p = kNoProc;
    VectorTime vt;
    std::uint64_t serial = 0;
  };

  struct LockLocal {
    bool owner = false;
    bool in_cs = false;
    ProcId handed_to = kNoProc;
    std::uint64_t handed_serial = 0;  ///< serial of the request last granted
    std::deque<Waiter> waiting;
    bool grant_ready = false;
    // Crash-failover state (zero in crash-free runs).
    std::uint64_t awaiting_serial = 0;
    std::uint64_t req_op_id = 0;
  };

  // Helpers.
  TmProtocol& peer(ProcId p) { return *sh_->nodes[static_cast<std::size_t>(p)]; }
  PageState& page(PageId pg) { return pages_[pg]; }

  static std::uint64_t vt_sum(const VectorTime& vt);

  /// End the current interval: bump own clock, log the dirty set.
  void end_interval();

  /// Append a notice entry (deduplicated) and return true if it was new.
  bool absorb_entry(const NoticeEntry& e);

  /// Invalidate local copies named by `e` (writer != self).
  void apply_entry_invalidations(const NoticeEntry& e);

  // Fault machinery.
  void handle_fault(PageId pg, bool is_write);
  void resolve_page(PageId pg);  ///< valid after this
  void fetch_pending_diffs(PageId pg, sim::Bucket bucket);

  /// Serve a diff request (engine-side at the writer): stored diffs after
  /// `after`, creating the live diff first if the page is dirty. `cost`
  /// accumulates the server cycles (diff creation happens here — TreadMarks'
  /// critical-path diffing).
  std::vector<StoredDiff> serve_diffs(PageId pg, std::size_t after, Cycles& cost);

  // Lock machinery (engine-side handlers). `serial` is the crash-failover
  // dedup serial the eventual grant echoes (0 crash-free); `mgr_at` on the
  // manager handlers is the node the message was addressed to — when a
  // crash failover re-elected the hint manager meanwhile, the handler
  // forwards one hop instead of touching a shard another worker owns.
  void mgr_route_request(LockId l, ProcId requester,
                         std::shared_ptr<VectorTime> req_vt,
                         std::uint64_t serial, ProcId mgr_at);
  void mgr_set_hint(LockId l, ProcId p, ProcId mgr_at);
  bool duplicate_waiter(const LockLocal& ll, ProcId requester,
                        std::uint64_t serial) const;
  void lock_request_arrive(LockId l, ProcId requester, VectorTime req_vt,
                           std::uint64_t serial);
  void requeue_request(LockId l, ProcId requester, VectorTime req_vt,
                       std::uint64_t serial);
  void serve_grant(LockId l, ProcId requester, const VectorTime& req_vt,
                   bool engine_side, std::uint64_t serial);
  void recv_grant(LockId l, std::vector<NoticeEntry> entries, VectorTime owner_vt,
                  std::uint64_t serial);

  // Crash failover (policy::PolicyEngine hooks). TreadMarks' manager holds
  // only the owner hint, so failover migrates the hint entry; distributed
  // waiting queues live at surviving owners. A crashed *owner* is a
  // stall-until-recovery case by design (§ DESIGN.md 12).
  std::vector<ProcId> lock_sharers(LockId l, ProcId crashed) override;
  void migrate_lock_state(LockId l, ProcId from, ProcId to) override;

  // Barrier machinery.
  void mgr_barrier_arrive(ProcId p, VectorTime vt, std::vector<NoticeEntry> entries);
  void recv_barrier_release(VectorTime merged, std::vector<NoticeEntry> entries);

  std::shared_ptr<TmShared> sh_;

  std::uint64_t diff_k_ = 0;  ///< per-node DiffTag counter

  VectorTime vt_;
  std::vector<PageState> pages_;
  std::set<PageId> dirty_set_;
  /// Pages write-faulted in the current interval. Kept separately from the
  /// twin state: serving a diff mid-interval cleans the twin but the
  /// interval's write notices must still be issued, or processors that did
  /// not fetch the diff never learn of the writes.
  std::set<PageId> interval_writes_;
  std::vector<NoticeEntry> log_;
  std::set<std::pair<ProcId, std::uint32_t>> seen_intervals_;
  std::map<LockId, LockLocal> locks_;

  bool barrier_release_ = false;
  std::uint32_t last_barrier_own_ = 0;  ///< own clock at the previous barrier
  std::uint64_t invalidations_pending_cost_ = 0;
};

/// Suite factory (mirrors aec::AecSuite).
class TmSuite {
 public:
  /// Runs `pol` (family kTmk) on the TreadMarks engine.
  explicit TmSuite(policy::ConsistencyPolicy pol = default_policy());

  dsm::ProtocolSuite suite();
  const TmShared* shared() const { return shared_.get(); }
  std::shared_ptr<const TmShared> shared_handle() const { return shared_; }

  const policy::ConsistencyPolicy& policy() const { return pol_; }

 private:
  static policy::ConsistencyPolicy default_policy();

  policy::ConsistencyPolicy pol_;
  std::shared_ptr<TmShared> shared_;
};

}  // namespace aecdsm::tmk
