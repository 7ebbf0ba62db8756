// PolicyEngine: the machinery the three consistency protocols share,
// hoisted out of aec/tmk/erc protocol.cpp where it lived in triplicate.
//
// The engine owns:
//   * the cost-charged messaging idioms — send_from_app (fixed service
//     cost, app thread pays the overhead) and post_dynamic (service cost
//     computed engine-side at delivery);
//   * the charged twin/diff chain — make_twin_charged, create_diff_charged,
//     apply_diff_charged charge the paper's Table 1 per-word costs to the
//     calling application thread and record diff.create/diff.apply trace
//     spans;
//   * service_diff_create — engine-side (svc-flagged) lazy diff creation at
//     a serving node, the shape AEC's deferred publication and TreadMarks'
//     critical-path diffing share;
//   * fetch_page_from_home — the two-hop whole-page RPC every protocol uses
//     on a cold miss;
//   * lap_score_grant, the LAP bookkeeping every lock-manager flavour runs
//     at a grant (the AEC/Munin-ERC manager itself is policy/lock_manager).
//
// Derived protocols (AecProtocol, TmProtocol, ErcProtocol) keep their
// protocol-specific state machines and consult pol_ for the axes their
// engine makes configurable. Everything here preserves the exact
// advance/sync/post sequences of the pre-refactor code: the determinism
// contract is that the legacy presets stay byte-identical to the committed
// bench baselines.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "dsm/context.hpp"
#include "dsm/machine.hpp"
#include "dsm/protocol.hpp"
#include "mem/diff.hpp"
#include "policy/lap.hpp"
#include "policy/policy.hpp"
#include "sim/processor.hpp"

namespace aecdsm::policy {

/// Manager-side LAP bookkeeping at a lock grant, shared by every lock
/// scheme: score the realized transfer, consume the acquirer's virtual-queue
/// notice, and predict the next update set. `from` is kNoProc on the first
/// grant of a chain.
std::vector<ProcId> lap_score_grant(LockLap& lap, ProcId from, ProcId to);

class PolicyEngine : public dsm::Protocol {
 public:
  const ConsistencyPolicy* active_policy() const override { return &pol_; }
  DiffStats diff_stats() const override { return dstats_; }

  /// Transport suspect verdict: `peer` is fail-stop crashed and has pending
  /// traffic from this node. Starts lock-manager failover for every lock
  /// with a pending op aimed at the crashed manager (§ DESIGN.md 12).
  void on_peer_suspect(ProcId peer) override;

  /// Warm reboot at the end of this node's crash window: replay every
  /// pending manager op to the lock's *current* manager. The crashed node
  /// missed any re-election broadcast (it is skipped while down), so ops
  /// it aimed at its own pre-crash managership would otherwise never chase
  /// the successor; manager-side serial dedup absorbs replays that race a
  /// reply still being retransmitted by a live sender.
  void on_recover() override;

 protected:
  PolicyEngine(dsm::Machine& m, ProcId self, ConsistencyPolicy pol);

  /// Fixed size of small control messages (requests, grants sans lists,
  /// acks).
  static constexpr std::size_t kCtl = 32;

  /// Page singled out for verbose tracing via AECDSM_TRACE_PAGE (debugging).
  static PageId trace_page();

  /// Word within the traced page reported by value traces
  /// (AECDSM_TRACE_WORD).
  static std::size_t trace_word();

  sim::Processor& proc() { return *m_.node(self_).proc; }
  dsm::Context& ctx() { return *m_.node(self_).ctx; }
  mem::PageStore& store() { return *m_.node(self_).store; }

  /// Post a message whose service cost is known now; the calling app thread
  /// pays the send overhead in `bucket` before the post.
  void send_from_app(ProcId to, std::size_t bytes, Cycles svc_cost,
                     std::function<void()> handler, sim::Bucket bucket);

  /// Post a message whose service cost is computed engine-side at delivery
  /// (the serve lambda runs at the receiver and returns its cost).
  void post_dynamic(ProcId from, ProcId to, std::size_t bytes,
                    std::function<Cycles()> cost,
                    std::function<void()> handler);

  /// Twin creation charged to the app thread (Table 1).
  void make_twin_charged(PageId pg, sim::Bucket bucket);

  /// Diff creation charged to the app thread; `hidden` marks work the
  /// protocol overlaps with synchronization waiting (Table 4 accounting).
  mem::Diff create_diff_charged(PageId pg, bool hidden, sim::Bucket bucket);

  /// Diff application charged to the app thread; keeps a live twin in sync
  /// and invalidates the cached copy of the page.
  void apply_diff_charged(PageId pg, const mem::Diff& d, bool hidden,
                          sim::Bucket bucket);

  /// Engine-side diff creation at a serving node: adds the creation cost to
  /// `cost` (the enclosing message service), records an svc-flagged
  /// diff.create span and the stats, and returns the live diff against the
  /// twin. The page's twin is left untouched — disposition is the caller's.
  mem::Diff service_diff_create(PageId pg, Cycles& cost);

  /// Two-hop whole-page fetch from `h` (cold miss / stale copy). `at_home`
  /// runs engine-side at the home: it does the home's bookkeeping and fills
  /// `buf` with the page contents (every protocol copies the home's span,
  /// some also snapshot metadata). The reply lands the buffer into the
  /// local frame; `landed` (may be null) then runs engine-side at self for
  /// local post-processing (twin restart, deferred-update replay) before
  /// the waiting app thread resumes. Blocks in `bucket` until the page has
  /// landed.
  void fetch_page_from_home(PageId pg, ProcId h, sim::Bucket bucket,
                            std::function<void(std::vector<Word>& buf)> at_home,
                            std::function<void()> landed);

  /// Record one sample of this node's counter track `name` at time `t`
  /// (trace::names::kLockQueueDepth, kDiffOutstanding). Pass proc().now()
  /// from app-side code and m_.engine().now() from engine-side handlers.
  /// Observational only: never advances time or perturbs the run.
  void trace_counter(const char* name, Cycles t, std::uint64_t value);

  // --- Crash failover: lock-manager re-election -----------------------------
  //
  // Every manager-directed operation that would be lost if the manager
  // crashed (an un-granted REQUEST, an unconfirmed RELEASE) is tracked in a
  // per-node registry while a crash schedule exists. When the transport
  // suspects the manager, a surviving node with pending business is elected
  // deterministically (lowest live rank among the lock's sharers), the lock
  // record migrates to its shard — lock records live in shared host memory,
  // so custody survives the fail-stop window — and every live node replays
  // its pending ops to the new manager, rebuilding the FIFO/LAP waiting
  // queue in deterministic DES arrival order. Crash-free runs never build
  // the registry and never see a failover message.

  /// Is any crash window scheduled? Gates all failover-only traffic.
  bool crash_scheduled() const {
    return m_.params().faults.crash_scheduled();
  }

  /// Per-(node, lock) monotonic serial minted at acquire; the matching
  /// release reuses the acquire's serial. Managers dedup replayed requests
  /// and releases by it.
  std::uint64_t next_op_serial(LockId l) { return ++op_serial_[l]; }

  /// Track a pending manager op for crash replay; returns a registry id for
  /// clear_mgr_op (0 — and no tracking — when no crash is scheduled).
  /// `replay` re-posts the op to the re-elected manager; retransmission is
  /// NIC-autonomous and charges no app-thread time.
  std::uint64_t track_mgr_op(LockId l, ProcId mgr, std::uint64_t serial,
                             std::function<void(ProcId new_mgr)> replay);
  void clear_mgr_op(std::uint64_t id);

  /// Release confirmation: erase the tracked op for (l, serial). The
  /// confirming manager does not know the releaser's registry id, but the
  /// (lock, serial) pair identifies at most one pending op.
  void clear_mgr_op_by_serial(LockId l, std::uint64_t serial);

  /// The PolicyEngine instance running at `p` (all nodes of a run execute
  /// the same preset).
  PolicyEngine& peer_engine(ProcId p) {
    return *static_cast<PolicyEngine*>(m_.node(p).protocol.get());
  }

  /// Exclusive self-event: elect a successor for `l` whose manager
  /// `crashed` is suspected, and post it the failover request.
  void begin_failover(LockId l, ProcId crashed);

  /// Exclusive event at the elected successor: install the override, migrate
  /// custody, and broadcast the manager change to every live node.
  void handle_failover_request(LockId l, ProcId crashed);

  /// At each node: re-aim pending ops for `l` at the new manager and replay
  /// them.
  void on_manager_change(LockId l, ProcId new_mgr);

  /// Protocol-specific election input: nodes known to share lock `l`'s
  /// state (owner, diff custodians, ...). The suspecter itself is always a
  /// candidate.
  virtual std::vector<ProcId> lock_sharers(LockId l, ProcId crashed) {
    (void)l;
    (void)crashed;
    return {};
  }

  /// Protocol-specific custody migration: move lock `l`'s record between
  /// the shard maps of `from` and `to` and reset manager-soft state (the
  /// waiting/virtual queues; affinity history and diff custody survive).
  virtual void migrate_lock_state(LockId l, ProcId from, ProcId to) {
    (void)l;
    (void)from;
    (void)to;
  }

  const ConsistencyPolicy pol_;
  dsm::Machine& m_;
  const ProcId self_;
  DiffStats dstats_;

 private:
  /// Pending manager-directed op, keyed by a monotonically increasing id so
  /// replay iterates in issue order (preserving per-channel REL-before-REQ
  /// FIFO order at the new manager).
  struct MgrOp {
    LockId lock = 0;
    ProcId mgr = kNoProc;
    std::uint64_t serial = 0;
    std::function<void(ProcId new_mgr)> replay;
  };
  std::map<std::uint64_t, MgrOp> mgr_ops_;
  std::uint64_t next_op_id_ = 0;
  std::map<LockId, std::uint64_t> op_serial_;
};

}  // namespace aecdsm::policy
