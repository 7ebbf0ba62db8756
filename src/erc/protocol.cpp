#include "erc/protocol.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::erc {

namespace {
// Munin-ERC's lock-message shapes: small requests and notices, a bare grant.
constexpr policy::LockWire kLockWire{/*notice_svc=*/1, /*request_svc=*/2,
                                     /*grant_bytes=*/0, /*grant_svc=*/1,
                                     /*handoff_svc=*/2};
}  // namespace

// kCtl and trace_page() are inherited from policy::PolicyEngine.

#define AECDSM_TRACE(pg, stream_expr)                    \
  do {                                                   \
    if ((pg) == trace_page()) AECDSM_DEBUG(stream_expr); \
  } while (0)

ErcProtocol::ErcProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<ErcShared> shared)
    : policy::LockManagerEngine(m, self, shared->policy, shared->locks, kLockWire),
      sh_(std::move(shared)) {
  if (sh_->nodes.empty()) {
    sh_->nodes.resize(static_cast<std::size_t>(m.nprocs()), nullptr);
    sh_->copyset.assign(m.num_pages(), DynBitset(m.nprocs()));
    for (PageId pg = 0; pg < m.num_pages(); ++pg) {
      sh_->copyset[pg].set(static_cast<int>(pg % static_cast<PageId>(m.nprocs())));
    }
  }
  sh_->nodes[static_cast<std::size_t>(self)] = this;
  dsm::init_round_robin_validity(m, self);
}

ErcProtocol::~ErcProtocol() = default;

// --------------------------------------------------------------------------
// Faults
// --------------------------------------------------------------------------

void ErcProtocol::on_read_fault(PageId pg) {
  const auto& params = m_.params();
  proc().advance(params.interrupt_cycles, sim::Bucket::kData);
  mem::PageFrame& f = store().frame(pg);
  if (f.valid) return;

  // Fetch the current copy from the page's home (which joins us to the
  // copyset — from now on we receive every update of the page).
  const ProcId h = home_of(pg);
  AECDSM_CHECK_MSG(h != self_, "ERC home fault on own page " << pg);
  ++m_.node(self_).faults.cold_faults;
  // Marked before the request goes out: any update fanned out to this node
  // while the fetch is in flight must be deferred, or the full-page reply
  // would overwrite it.
  fetching_.insert(pg);
  fetch_page_from_home(
      pg, h, sim::Bucket::kData,
      [this, h, pg](std::vector<Word>& buf) {
        AECDSM_TRACE(pg, "p" << self_ << " erc-fetch pg" << pg << " (copyset now "
                             << sh_->copyset[pg].count() + 1 << " members)");
        sh_->copyset[pg].set(self_);
        auto span = peer(h).store().page_span(pg);
        buf.assign(span.begin(), span.end());
      },
      [this, pg] {
        // Updates that raced the reply are newer than the copied frame;
        // fold them back in, in arrival order.
        fetching_.erase(pg);
        auto it = fetch_pending_.find(pg);
        if (it != fetch_pending_.end()) {
          for (const mem::Diff& d : it->second) apply_update(pg, d);
          fetch_pending_.erase(it);
        }
      });
  f.valid = true;
  ctx().invalidate_cache_page(pg);
}

void ErcProtocol::on_write_fault(PageId pg) {
  on_read_fault(pg);  // ensure a current copy (no-op when valid)
  mem::PageFrame& f = store().frame(pg);
  if (f.write_protected) {
    AECDSM_CHECK(!f.has_twin());
    proc().advance(m_.params().twin_create_cycles(), sim::Bucket::kData);
    store().make_twin(pg);
    dirty_set_.insert(pg);
    trace_counter(trace::names::kDiffOutstanding, proc().now(),
                  dirty_set_.size());
    f.write_protected = false;
  }
}

// --------------------------------------------------------------------------
// Update flush (release consistency's eager propagation)
// --------------------------------------------------------------------------

void ErcProtocol::flush_updates(sim::Bucket bucket) {
  const auto& params = m_.params();
  if (dirty_set_.empty()) return;

  const std::vector<PageId> dirty(dirty_set_.begin(), dirty_set_.end());
  for (const PageId pg : dirty) {
    // Eager RC: diff creation sits on the release's critical path (never
    // hidden behind a synchronization wait).
    mem::Diff d = create_diff_charged(pg, /*hidden=*/false, bucket);

    store().drop_twin(pg);
    store().frame(pg).write_protected = true;
    dirty_set_.erase(pg);
    trace_counter(trace::names::kDiffOutstanding, proc().now(),
                  dirty_set_.size());
    if (d.empty()) continue;

    const std::uint64_t id =
        (static_cast<std::uint64_t>(self_) << 48) | next_update_id_++;
    ++pending_acks_;
    const std::size_t bytes = kCtl + d.encoded_bytes();
    send_from_app(home_of(pg), bytes,
                  params.diff_apply_cycles(d.changed_words()),
                  [this, pg, id, diff = std::move(d), w = self_]() mutable {
                    peer(home_of(pg)).home_handle_update(pg, w, diff, id);
                  },
                  bucket);
  }
  // The eager-RC stall: the release cannot complete until every copy is
  // updated and acknowledged.
  proc().wait(bucket, [this] { return pending_acks_ == 0; });
}

void ErcProtocol::home_handle_update(PageId pg, ProcId writer, const mem::Diff& diff,
                                     std::uint64_t update_id) {
  AECDSM_TRACE(pg, "home p" << self_ << " update pg" << pg << " from p" << writer
                            << " words=" << diff.changed_words() << " copyset="
                            << sh_->copyset[pg].count());
  // The home applies first (its copy is the fault-service master).
  if (writer != self_) apply_update(pg, diff);

  DynBitset members = sh_->copyset[pg];
  members.reset(writer);
  members.reset(self_);
  const int count = members.count();
  if (count == 0) {
    // Nobody else caches the page: acknowledge the writer directly.
    m_.post(self_, writer, kCtl, m_.params().list_processing_per_elem,
            [this, writer] {
              ErcProtocol& w = peer(writer);
              --w.pending_acks_;
              w.proc().poke();
            });
    return;
  }
  fanouts_[update_id] = FanOut{writer, count};
  for (int q = 0; q < m_.nprocs(); ++q) {
    if (!members.test(q)) continue;
    m_.post(self_, q, kCtl + diff.encoded_bytes(),
            m_.params().diff_apply_cycles(diff.changed_words()),
            [this, pg, q, update_id, diff, h = self_] {
              peer(q).member_apply_update(pg, h, diff, update_id, kNoProc);
            });
  }
}

void ErcProtocol::member_apply_update(PageId pg, ProcId home, const mem::Diff& diff,
                                      std::uint64_t update_id, ProcId /*writer*/) {
  if (fetching_.count(pg) != 0) {
    // A home fetch for this page is in flight; the full-page reply would
    // overwrite this update, so defer it (the fetch handler re-applies it,
    // and this node cannot read the page before the fetch completes).
    fetch_pending_[pg].push_back(diff);
  } else {
    apply_update(pg, diff);
  }
  m_.post(self_, home, kCtl, m_.params().list_processing_per_elem,
          [this, home, update_id] {
            ErcProtocol& hp = peer(home);
            auto it = hp.fanouts_.find(update_id);
            AECDSM_CHECK(it != hp.fanouts_.end());
            if (--it->second.remaining == 0) {
              const ProcId writer = it->second.writer;
              hp.fanouts_.erase(it);
              m_.post(home, writer, kCtl, m_.params().list_processing_per_elem,
                      [this, writer] {
                        ErcProtocol& w = peer(writer);
                        --w.pending_acks_;
                        w.proc().poke();
                      });
            }
          });
}

void ErcProtocol::apply_update(PageId pg, const mem::Diff& diff) {
  AECDSM_TRACE(pg, "p" << self_ << " erc-apply pg" << pg << " words="
                       << diff.changed_words());
  mem::PageFrame& f = store().frame(pg);
  diff.apply_to(std::span<Word>(f.data));
  if (f.has_twin()) diff.apply_to(std::span<Word>(*f.twin));
  ctx().invalidate_cache_page(pg);
  ++dstats_.diffs_applied;
  const Cycles c = m_.params().diff_apply_cycles(diff.changed_words());
  dstats_.apply_cycles += c;
  // Updates are applied engine-side while servicing the home/member message;
  // the apply cost is part of that service, i.e. on the update's critical
  // path, so the span is svc-flagged (never counted as hidden).
  if (trace::Recorder* tr = m_.recorder()) {
    tr->span(self_, trace::Category::kDiff, trace::names::kDiffApply,
             m_.engine().now(), m_.engine().now() + c, "page", pg, "svc", 1);
  }
}

// --------------------------------------------------------------------------
// Locks
// --------------------------------------------------------------------------

void ErcProtocol::acquire_notice(LockId l) { send_notice(l); }

void ErcProtocol::acquire(LockId l) {
  grant_ready_ = false;
  send_request(l);
  proc().wait(sim::Bucket::kSynch, [this] { return grant_ready_; });
}

void ErcProtocol::release(LockId l) {
  // Eager release consistency: flush and wait before releasing the lock.
  flush_updates(sim::Bucket::kSynch);
  send_release(l, /*pages=*/{}, /*episode=*/0);
}

void ErcProtocol::on_grant(LockId /*l*/, policy::Grant /*g*/) {
  grant_ready_ = true;
  proc().poke();
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void ErcProtocol::barrier() {
  flush_updates(sim::Bucket::kSynch);
  barrier_release_ = false;
  send_from_app(m_.barrier_manager(), kCtl, m_.params().list_processing_per_elem,
                [this] { mgr_handle_barrier_arrival(); }, sim::Bucket::kSynch);
  proc().wait(sim::Bucket::kSynch, [this] { return barrier_release_; });
}

void ErcProtocol::mgr_handle_barrier_arrival() {
  auto& b = sh_->barrier;
  if (++b.arrived < m_.nprocs()) return;
  b.arrived = 0;
  for (int q = 0; q < m_.nprocs(); ++q) {
    m_.post(m_.barrier_manager(), q, kCtl, m_.params().list_processing_per_elem,
            [this, q] {
              ErcProtocol& p = peer(q);
              p.barrier_release_ = true;
              p.proc().poke();
            });
  }
}

// --------------------------------------------------------------------------
// Suite
// --------------------------------------------------------------------------

policy::ConsistencyPolicy ErcSuite::default_policy() {
  const policy::ConsistencyPolicy* p = policy::find_policy("Munin-ERC");
  AECDSM_CHECK(p != nullptr);
  return *p;
}

ErcSuite::ErcSuite(policy::ConsistencyPolicy pol) : pol_(std::move(pol)) {
  policy::validate(pol_);
  AECDSM_CHECK_MSG(pol_.family == policy::Family::kErc,
                   "ErcSuite asked to run non-ERC policy '" << pol_.name << "'");
}

dsm::ProtocolSuite ErcSuite::suite() {
  dsm::ProtocolSuite s;
  s.name = pol_.name;
  s.make = [this](dsm::Machine& m, ProcId p) -> std::unique_ptr<dsm::Protocol> {
    if (p == 0) shared_ = std::make_shared<ErcShared>(m.params(), pol_);
    return std::make_unique<ErcProtocol>(m, p, shared_);
  };
  return s;
}

}  // namespace aecdsm::erc
