#include "policy/lock_manager.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "locks/discipline.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::policy {

// --------------------------------------------------------------------------
// Lock table
// --------------------------------------------------------------------------

LockTable::LockTable(const SystemParams& p, const ConsistencyPolicy& pol)
    : strategy(locks::parse_strategy(p.locks.strategy)),
      collect_stats(strategy != locks::Strategy::kCentral || p.locks.collect_stats),
      shards(static_cast<std::size_t>(p.num_procs)),
      stats(static_cast<std::size_t>(p.num_procs)),
      nprocs_(p.num_procs),
      update_set_size_(p.update_set_size),
      affinity_threshold_(pol.lap_affinity ? p.affinity_threshold : 1e30) {}

LockRecord& LockTable::at(LockId l, ProcId mgr) {
  std::map<LockId, LockRecord>& shard = shards[static_cast<std::size_t>(mgr)];
  auto it = shard.find(l);
  if (it == shard.end()) {
    it = shard.emplace(l, LockRecord(nprocs_, update_set_size_, affinity_threshold_))
             .first;
  }
  return it->second;
}

LockRecord* LockTable::find(LockId l, ProcId mgr) {
  auto& shard = shards[static_cast<std::size_t>(mgr)];
  auto it = shard.find(l);
  return it == shard.end() ? nullptr : &it->second;
}

void LockTable::migrate(LockId l, ProcId from, ProcId to) {
  auto node = shards[static_cast<std::size_t>(from)].extract(l);
  if (!node.empty()) shards[static_cast<std::size_t>(to)].insert(std::move(node));
}

// --------------------------------------------------------------------------
// Requester side
// --------------------------------------------------------------------------

LockManagerEngine::LockManagerEngine(dsm::Machine& m, ProcId self,
                                     ConsistencyPolicy pol, LockTable& table,
                                     const LockWire& wire)
    : PolicyEngine(m, self, std::move(pol)), table_(table), wire_(wire) {}

void LockManagerEngine::send_notice(LockId l) {
  const ProcId mgr = m_.lock_manager(l);
  send_from_app(mgr, kCtl, m_.params().list_processing_per_elem * wire_.notice_svc,
                [this, l, p = self_, mgr] { mgr_handle_notice(l, p, mgr); },
                sim::Bucket::kSynch);
}

void LockManagerEngine::send_request(LockId l) {
  const ProcId mgr = m_.lock_manager(l);
  const Cycles svc = m_.params().list_processing_per_elem * wire_.request_svc;
  std::uint64_t serial = 0;
  if (crash_scheduled()) {
    Tenure& t = tenures_[l];
    serial = next_op_serial(l);
    t.awaiting_serial = serial;
    t.cur_serial = serial;
    // The replay rides the engine (a NIC-autonomous re-send to the
    // re-elected manager); the app thread is blocked inside this very
    // acquire and must not be charged again.
    t.req_op_id = track_mgr_op(l, mgr, serial, [this, l, serial, svc](ProcId nm) {
      m_.post(self_, nm, kCtl, svc, [this, l, p = self_, serial, nm] {
        mgr_handle_request(l, p, serial, nm);
      });
    });
  }
  send_from_app(mgr, kCtl, svc,
                [this, l, p = self_, serial, mgr] {
                  mgr_handle_request(l, p, serial, mgr);
                },
                sim::Bucket::kSynch);
}

void LockManagerEngine::send_release(LockId l, std::vector<PageId> pages,
                                     std::uint32_t episode) {
  const Cycles per = m_.params().list_processing_per_elem;
  Tenure& t = tenures_[l];

  // mcs: when the manager linked a successor behind this tenure, hand the
  // lock to it directly — one point-to-point message carrying the release
  // page list plus the grant payload (the successor reads the holder map
  // from the shared record; the bytes model the grant delta it would have
  // received from the manager). The successor performs the manager-record
  // bookkeeping itself, on its own node.
  if (mcs_direct()) {
    if (auto lit = t.mcs_links.find(t.grant_counter); lit != t.mcs_links.end()) {
      const ProcId succ = lit->second;
      t.mcs_links.erase(lit);
      send_from_app(succ, kCtl + 8 * pages.size() + wire_.grant_bytes + 12 * pages.size(),
                    per * (pages.size() + wire_.handoff_svc),
                    [this, l, p = self_, pages, episode, succ] {
                      peer_core(succ).recv_direct_handoff(l, p, pages, episode);
                    },
                    sim::Bucket::kSynch);
      return;
    }
  }

  const ProcId mgr = m_.lock_manager(l);
  const std::uint64_t serial = crash_scheduled() ? t.cur_serial : 0;
  if (serial != 0) {
    // The release op stays tracked until the manager's crash-gated
    // confirmation lands; a manager crash replays it to the successor so
    // the FIFO hand-off is not lost with the crashed node.
    track_mgr_op(l, mgr, serial, [this, l, pages, episode, serial, per](ProcId nm) {
      m_.post(self_, nm, kCtl + 8 * pages.size(), per * (pages.size() + 2),
              [this, l, p = self_, pages, episode, serial, nm] {
                mgr_handle_release(l, p, pages, episode, serial, nm);
              });
    });
  }
  send_from_app(mgr, kCtl + 8 * pages.size(), per * (pages.size() + 2),
                [this, l, p = self_, pages, episode, serial, mgr] {
                  mgr_handle_release(l, p, pages, episode, serial, mgr);
                },
                sim::Bucket::kSynch);
}

void LockManagerEngine::recv_grant(LockId l, Grant g) {
  Tenure& t = tenures_[l];
  if (crash_scheduled()) {
    // Only the grant answering this lock's outstanding request counts:
    // duplicates (the pre-crash manager's original racing the successor's
    // rebuild, or a resend triggered by a bounced stale request) are dropped.
    if (g.serial != t.awaiting_serial) {
      AECDSM_DEBUG("p" << self_ << " drops grant l" << l << " serial=" << g.serial
                       << " awaiting=" << t.awaiting_serial);
      return;
    }
    t.awaiting_serial = 0;
    clear_mgr_op(t.req_op_id);
    t.req_op_id = 0;
  }
  t.grant_counter = g.counter;
  // Links chained behind past tenures were consumed (or superseded by a
  // manager-path grant that raced the LINK); only the current tenure's
  // link — possibly not arrived yet — can still matter.
  t.mcs_links.erase(t.mcs_links.begin(), t.mcs_links.lower_bound(g.counter));
  on_grant(l, std::move(g));
}

void LockManagerEngine::recv_mcs_link(LockId l, std::uint32_t pred_counter,
                                      ProcId succ) {
  // Store unconditionally: tenure counters are globally unique per lock, so
  // only the tenure whose grant carries `pred_counter` ever consumes this
  // entry. A link landing after its tenure already released the manager way
  // (the REL raced the LINK) goes stale and is pruned at the next grant.
  AECDSM_DEBUG("p" << self_ << " mcs link l" << l << " pred_counter="
                   << pred_counter << " succ=p" << succ);
  tenures_[l].mcs_links[pred_counter] = succ;
}

void LockManagerEngine::recv_direct_handoff(LockId l, ProcId releaser,
                                            std::vector<PageId> pages,
                                            std::uint32_t episode) {
  const ProcId mgr = m_.lock_manager(l);
  LockRecord& rec = table_.at(l, mgr);
  AECDSM_DEBUG("p" << self_ << " direct handoff l" << l << " from p" << releaser
                   << " counter=" << rec.counter);
  // The releaser's LINK promised this node is the exact FIFO successor of
  // its tenure — true by construction in crash-free runs (mcs handoffs are
  // disabled under a crash schedule). Validate against the shared record
  // anyway and degrade to a plain manager-path release on any mismatch.
  if (!(rec.taken && rec.owner == releaser && rec.lap.has_waiters() &&
        rec.lap.waiting().front() == self_)) {
    if (table_.collect_stats) {
      ++table_.stats[static_cast<std::size_t>(self_)].fallback_rels;
    }
    m_.post(self_, mgr, kCtl + 8 * pages.size(),
            m_.params().list_processing_per_elem * (pages.size() + 2),
            [this, l, releaser, pages, episode, mgr] {
              mgr_handle_release(l, releaser, pages, episode, /*serial=*/0, mgr);
            });
    return;
  }

  // The manager's release + grant bookkeeping, performed here on the
  // successor's node. This node IS the grantee: no reply message.
  note_release(rec, releaser, pages, episode);
  const ProcId to = rec.lap.dequeue_waiter();
  AECDSM_CHECK(to == self_);
  rec.owner = self_;  // rec.taken stays true across the handoff
  ++rec.counter;
  predict(l, rec, self_, self_);
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(self_, trace::Category::kLock, trace::names::kLockHandoff,
                m_.engine().now(), "lock", l, "from",
                static_cast<std::uint64_t>(releaser));
  }
  if (table_.collect_stats) {
    locks::note_grant(table_.stats[static_cast<std::size_t>(self_)], m_.params(),
                      releaser, self_, rec.lap.waiting_count(),
                      /*direct_handoff=*/true, /*skipped_head=*/false);
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                rec.lap.waiting_count());
  recv_grant(l, grant_of(rec, self_, /*serial=*/0));
}

// --------------------------------------------------------------------------
// Manager side (runs as services on the lock's manager node)
// --------------------------------------------------------------------------

void LockManagerEngine::mgr_handle_request(LockId l, ProcId requester,
                                           std::uint64_t serial, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    // A failover re-elected the manager after this message left: forward
    // one hop. The record now lives in the new manager's shard, which only
    // that node's worker may touch.
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, requester, serial, mgr] {
              mgr_handle_request(l, requester, serial, mgr);
            });
    return;
  }
  LockRecord& rec = table_.at(l, mgr);
  AECDSM_DEBUG("mgr req l" << l << " from p" << requester << " serial=" << serial
                           << " taken=" << rec.taken << " owner=" << rec.owner);
  if (serial != 0) {
    // Crash-failover dedup (serials are only minted under a crash schedule).
    auto gt = rec.granted_serial.find(requester);
    if (gt != rec.granted_serial.end() && serial <= gt->second) {
      // The tenure this request started was already granted. If the
      // requester still owns the lock its grant was lost with the crashed
      // manager (or raced it): rebuild the reply idempotently. Otherwise
      // the tenure completed and this is a stale replay — drop it. A fresh
      // serial from the current owner (its release still in flight behind
      // this request) falls through and queues like any other waiter.
      if (serial == gt->second && rec.taken && rec.owner == requester) {
        AECDSM_DEBUG("mgr req l" << l << " rebuild lost grant p" << requester);
        mgr_send_grant(l, rec, requester);
      } else {
        AECDSM_DEBUG("mgr req l" << l << " drop stale p" << requester
                                 << " serial=" << serial);
      }
      return;
    }
    if (rec.lap.waiting_contains(requester)) {
      AECDSM_DEBUG("mgr req l" << l << " p" << requester << " already queued");
      return;
    }
    rec.req_serial[requester] = serial;
  }
  rec.lap.count_acquire_event();
  if (rec.taken) {
    if (mcs_direct()) {
      // MCS: link the new waiter behind its queue predecessor so the
      // predecessor's release can hand the lock over point-to-point. Grants
      // are strict FIFO under mcs, so the predecessor's tenure counter is
      // known here: the current owner holds rec.counter and the i-th queued
      // waiter (1-based) will hold rec.counter + i.
      const bool queue_empty = !rec.lap.has_waiters();
      const ProcId pred = queue_empty ? rec.owner : rec.lap.waiting().back();
      const std::uint32_t pred_counter =
          rec.counter + static_cast<std::uint32_t>(rec.lap.waiting_count());
      m_.post(mgr, pred, kCtl, m_.params().list_processing_per_elem,
              [this, l, pred, pred_counter, requester] {
                peer_core(pred).recv_mcs_link(l, pred_counter, requester);
              });
      if (table_.collect_stats) {
        ++table_.stats[static_cast<std::size_t>(mgr)].link_messages;
      }
    }
    rec.lap.enqueue_waiter(requester);
  } else {
    mgr_grant(l, rec, requester);
    if (table_.collect_stats) {
      locks::note_grant(table_.stats[static_cast<std::size_t>(mgr)], m_.params(),
                        kNoProc, requester, rec.lap.waiting_count(),
                        /*direct_handoff=*/false, /*skipped_head=*/false);
    }
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                rec.lap.waiting_count());
}

void LockManagerEngine::mgr_grant(LockId l, LockRecord& rec, ProcId to) {
  AECDSM_DEBUG("mgr grant l" << l << " -> p" << to);
  rec.taken = true;
  rec.owner = to;
  ++rec.counter;
  predict(l, rec, to, m_.lock_manager(l));
  if (crash_scheduled()) rec.granted_serial[to] = rec.req_serial[to];
  mgr_send_grant(l, rec, to);
}

void LockManagerEngine::mgr_send_grant(LockId l, LockRecord& rec, ProcId to) {
  std::uint64_t serial = 0;
  if (auto it = rec.granted_serial.find(to); it != rec.granted_serial.end()) {
    serial = it->second;
  }
  Grant g = grant_of(rec, to, serial);
  const std::size_t entries = g.holders.size();
  m_.post(m_.lock_manager(l), to, kCtl + wire_.grant_bytes + 12 * entries,
          m_.params().list_processing_per_elem * (entries + wire_.grant_svc),
          [this, l, to, g = std::move(g)]() mutable {
            peer_core(to).recv_grant(l, std::move(g));
          });
}

void LockManagerEngine::mgr_handle_release(LockId l, ProcId releaser,
                                           std::vector<PageId> pages,
                                           std::uint32_t episode,
                                           std::uint64_t serial, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl + 8 * pages.size(),
            m_.params().list_processing_per_elem,
            [this, l, releaser, pages, episode, serial, mgr] {
              mgr_handle_release(l, releaser, pages, episode, serial, mgr);
            });
    return;
  }
  LockRecord& rec = table_.at(l, mgr);
  if (serial != 0) {
    auto& last_rel = rec.released_serial[releaser];
    if (serial <= last_rel) {
      // Replayed or bounced duplicate of a processed release; re-confirm so
      // the releaser's pending op clears even when the first ack raced a
      // crash window.
      mgr_send_release_ack(l, releaser, serial);
      return;
    }
    last_rel = serial;
  }
  AECDSM_CHECK_MSG(rec.taken && rec.owner == releaser,
                   "release of lock " << l << " by non-owner p" << releaser);
  AECDSM_DEBUG("mgr release l" << l << " by p" << releaser << " pages=" << pages.size()
                               << " counter=" << rec.counter << " ep=" << episode);
  note_release(rec, releaser, pages, episode);
  rec.taken = false;
  rec.owner = kNoProc;
  if (rec.lap.has_waiters()) {
    const locks::Pick pick = locks::pick_waiter(rec.lap.waiting(), table_.strategy,
                                                releaser, m_.params(), rec.hier_streak);
    const ProcId to = rec.lap.dequeue_waiter_at(pick.index);
    mgr_grant(l, rec, to);
    if (table_.collect_stats) {
      locks::note_grant(table_.stats[static_cast<std::size_t>(mgr)], m_.params(),
                        releaser, to, rec.lap.waiting_count(),
                        /*direct_handoff=*/false, pick.skipped_head);
    }
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                rec.lap.waiting_count());
  if (serial != 0) mgr_send_release_ack(l, releaser, serial);
}

void LockManagerEngine::mgr_send_release_ack(LockId l, ProcId releaser,
                                             std::uint64_t serial) {
  m_.post(m_.lock_manager(l), releaser, kCtl,
          m_.params().list_processing_per_elem, [this, l, releaser, serial] {
            peer_core(releaser).clear_mgr_op_by_serial(l, serial);
          });
}

void LockManagerEngine::mgr_handle_notice(LockId l, ProcId p, ProcId mgr_at) {
  if (!pol_.lap_virtual_queue) return;
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, p, mgr] { mgr_handle_notice(l, p, mgr); });
    return;
  }
  table_.at(l, mgr).lap.add_notice(p);
}

void LockManagerEngine::predict(LockId l, LockRecord& rec, ProcId to, ProcId at) {
  std::vector<ProcId>& u = rec.update_set[static_cast<std::size_t>(to)];
  u = lap_score_grant(rec.lap, rec.last_releaser, to);
  on_predict(l, at, u.size());
}

void LockManagerEngine::note_release(LockRecord& rec, ProcId releaser,
                                     const std::vector<PageId>& pages,
                                     std::uint32_t episode) {
  if (episode < rec.epoch) return;  // stale chain data from before a barrier reset
  rec.last_releaser = releaser;
  rec.last_release_counter = rec.counter;
  for (const PageId pg : pages) rec.diff_holder[pg] = releaser;
}

Grant LockManagerEngine::grant_of(const LockRecord& rec, ProcId to,
                                  std::uint64_t serial) const {
  Grant g;
  g.counter = rec.counter;
  g.serial = serial;
  g.last_releaser = rec.last_releaser;
  g.release_counter = rec.last_release_counter;
  g.holders = rec.diff_holder;
  g.update_set = rec.update_set[static_cast<std::size_t>(to)];
  if (pol_.lap_pushes() && rec.last_releaser != kNoProc && rec.last_releaser != to) {
    const auto& lu = rec.update_set[static_cast<std::size_t>(rec.last_releaser)];
    g.in_update_set = std::find(lu.begin(), lu.end(), to) != lu.end();
  }
  return g;
}

// --------------------------------------------------------------------------
// Crash failover (PolicyEngine hooks)
// --------------------------------------------------------------------------

std::vector<ProcId> LockManagerEngine::lock_sharers(LockId l, ProcId crashed) {
  std::vector<ProcId> out;
  const LockRecord* rec = table_.find(l, crashed);
  if (rec == nullptr) return out;
  if (rec->taken && rec->owner != kNoProc) out.push_back(rec->owner);
  if (rec->last_releaser != kNoProc) out.push_back(rec->last_releaser);
  for (const auto& [pg, h] : rec->diff_holder) out.push_back(h);
  return out;
}

void LockManagerEngine::migrate_lock_state(LockId l, ProcId from, ProcId to) {
  table_.migrate(l, from, to);
  if (LockRecord* rec = table_.find(l, to)) {
    // The waiting/virtual queues die with the crashed manager's custody and
    // are rebuilt from the live requesters' replayed ops; affinity history,
    // chain custody and the grant/release serials are shared state that
    // survives the fail-stop window.
    rec->lap.reset_queues();
  }
}

}  // namespace aecdsm::policy
