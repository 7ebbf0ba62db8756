// Munin-style eager release consistency (ERC) — the "locally-developed
// release-consistent SW-DSM" of the paper's §5.1 robustness study, and the
// update-everyone baseline its §6 contrasts AEC against ("AEC leads to much
// less communication than in Munin, since updates are only sent to the
// update set of the lock releaser, as opposed to all processors that shared
// the modified data").
//
// Protocol summary:
//  * multiple-writer pages with the usual twin/diff discipline;
//  * a static per-page directory (the page's home, page % nprocs) tracks
//    the copyset; faults fetch the page from the home, which always holds a
//    current copy (it is a member of every update);
//  * at every lock release and barrier arrival the processor flushes its
//    dirty pages: each diff goes to the home, the home applies it and
//    forwards it to the other copyset members, members acknowledge, and the
//    releaser proceeds only after all updates are acknowledged — eager
//    release consistency with its full update traffic and release stalls;
//  * locks use the shared lock-manager core (policy/lock_manager.hpp) with
//    a bare grant (no data — the updates already happened); barriers are a
//    gather/release round;
//  * the LAP predictor runs scoring-only at the lock managers, fed by the
//    same events as under AEC, completing the paper's three-protocol
//    accuracy comparison.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/bitset.hpp"
#include "common/stats.hpp"
#include "dsm/context.hpp"
#include "dsm/machine.hpp"
#include "dsm/protocol.hpp"
#include "dsm/system.hpp"
#include "mem/diff.hpp"
#include "policy/lock_manager.hpp"
#include "policy/policy.hpp"
#include "sim/processor.hpp"

namespace aecdsm::erc {

class ErcProtocol;

/// Run-wide ERC state: the lock table (records and their scoring-only LAP
/// instances, sharded by manager node) and the per-page copysets (stored
/// with the page's home; handlers touching them run as services there).
struct ErcShared {
  ErcShared(const SystemParams& p, policy::ConsistencyPolicy pol)
      : params(p), policy(std::move(pol)), locks(p, policy) {}

  const SystemParams params;
  const policy::ConsistencyPolicy policy;

  std::vector<ErcProtocol*> nodes;

  /// Lock records and strategy counters, sharded by manager node.
  policy::LockTable locks;

  /// Copyset per page (bit p = processor p caches the page). DynBitset: no
  /// 64-node cap, so k x k mesh sweeps reach 256/1024 nodes.
  std::vector<DynBitset> copyset;

  struct BarrierGather {
    int arrived = 0;
  } barrier;
};

class ErcProtocol : public policy::LockManagerEngine {
 public:
  ErcProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<ErcShared> shared);
  ~ErcProtocol() override;

  std::string name() const override { return pol_.name; }

  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void acquire(LockId lock) override;
  void release(LockId lock) override;
  void barrier() override;
  void acquire_notice(LockId lock) override;

  const ErcShared& shared() const { return *sh_; }

 private:
  ErcProtocol& peer(ProcId p) { return *sh_->nodes[static_cast<std::size_t>(p)]; }
  ProcId home_of(PageId pg) const {
    return static_cast<ProcId>(pg % static_cast<PageId>(m_.nprocs()));
  }

  /// Flush all dirty pages: diff, update the copyset through the home, and
  /// wait for every acknowledgement (the eager-RC release stall).
  void flush_updates(sim::Bucket bucket);

  /// Engine-side: the home applies an update and fans it out; the last
  /// member acknowledgement triggers the ack back to the writer.
  void home_handle_update(PageId pg, ProcId writer, const mem::Diff& diff,
                          std::uint64_t update_id);

  /// Engine-side at a member: apply the forwarded update, ack the home.
  void member_apply_update(PageId pg, ProcId home, const mem::Diff& diff,
                           std::uint64_t update_id, ProcId writer);

  /// Engine-side apply helper (frame + twin), with stats.
  void apply_update(PageId pg, const mem::Diff& diff);

  /// Bare grant: the updates already happened, so accepting it only
  /// resumes the acquirer.
  void on_grant(LockId l, policy::Grant g) override;

  void mgr_handle_barrier_arrival();

  std::shared_ptr<ErcShared> sh_;

  std::set<PageId> dirty_set_;

  /// Pages whose home fetch is in flight, with updates that fanned out to
  /// this node meanwhile: the full-page reply would overwrite them, so they
  /// are queued and re-applied once the copy lands.
  std::set<PageId> fetching_;
  std::map<PageId, std::vector<mem::Diff>> fetch_pending_;

  bool grant_ready_ = false;
  bool barrier_release_ = false;

  /// Outstanding update acknowledgements during a flush.
  int pending_acks_ = 0;
  std::uint64_t next_update_id_ = 1;

  /// Home-side bookkeeping of in-flight fan-outs: update id -> (writer,
  /// remaining member acks).
  struct FanOut {
    ProcId writer = kNoProc;
    int remaining = 0;
  };
  std::map<std::uint64_t, FanOut> fanouts_;
};

/// Suite factory (mirrors aec::AecSuite / tmk::TmSuite).
class ErcSuite {
 public:
  /// Runs `pol` (family kErc) on the eager-RC engine.
  explicit ErcSuite(policy::ConsistencyPolicy pol = default_policy());

  dsm::ProtocolSuite suite();
  const ErcShared* shared() const { return shared_.get(); }
  std::shared_ptr<const ErcShared> shared_handle() const { return shared_; }

  const policy::ConsistencyPolicy& policy() const { return pol_; }

 private:
  static policy::ConsistencyPolicy default_policy();

  policy::ConsistencyPolicy pol_;
  std::shared_ptr<ErcShared> shared_;
};

}  // namespace aecdsm::erc
