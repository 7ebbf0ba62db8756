// Conservative parallel-DES mode of sim::Engine. The sequential path lives
// entirely in the header; everything here only runs after enable_parallel().
//
// Execution model per round:
//   * Each node owns a (t, key)-ordered event heap. Workers own disjoint
//     node groups and execute any owned event with t < horizon(), where
//     horizon() = min over all node clocks + lookahead and a node's clock is
//     min(next pending event, earliest uncommitted cross-node send). Clocks
//     only grow within a round, so workers cache the horizon and re-scan
//     lazily; compute-heavy stretches leapfrog without synchronization.
//   * Side effects that touch shared simulation state are captured, not
//     applied: same-node schedule() calls enqueue provisionally (and log an
//     op), cross-node mesh sends log an op only. Everything a node captures
//     is attributable to it because every cross-node interaction in the
//     simulator rides the message fabric (see dsm::Machine).
//   * When no node can advance, the coordinator replays the executed events
//     of the round in the sequential engine's (t, seq) order, assigning the
//     sequential seq numbers to every captured schedule and routing captured
//     sends against the real mesh state in that order. Deliveries created by
//     replay land at or beyond every executed frontier (>= quiescent horizon
//     by the lookahead bound), so no node ever receives an event in its past.
//
// Determinism: replay reproduces the sequential engine's total event order
// by induction over rounds — see DESIGN.md ("Parallel engine") for the
// argument that the provisional in-round order matches the final order.
#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace aecdsm::sim {

Engine::~Engine() = default;

void Engine::enable_parallel(int threads, int num_nodes, Cycles lookahead,
                             MeshResolver resolver, LocalSendNote local_note) {
  if (threads <= 1) return;
  AECDSM_CHECK_MSG(heap_.empty() && seq_ == 0,
                   "enable_parallel after events were scheduled");
  AECDSM_CHECK(num_nodes > 0 && lookahead > 0);
  par_active_ = true;
  par_threads_ = std::min(threads, num_nodes);
  lookahead_ = lookahead;
  mesh_resolver_ = std::move(resolver);
  local_send_note_ = std::move(local_note);
  pnodes_ = std::vector<PNode>(static_cast<std::size_t>(num_nodes));
  clocks_ = std::vector<PClock>(static_cast<std::size_t>(num_nodes));
  for (auto& c : clocks_) c.v.store(kNever, std::memory_order_relaxed);
  wake_ = std::vector<PWake>(static_cast<std::size_t>(par_threads_));
}

// --------------------------------------------------------------------------
// Per-node event heaps
// --------------------------------------------------------------------------

namespace {

/// Min-heap ordering over (t, key). Provisional keys carry the high bit, so
/// they sort after every sequenced event at the same time — the order replay
/// preserves when it assigns real seqs.
inline bool pe_earlier(const Engine* /*unused*/, Cycles at, std::uint64_t ak,
                       Cycles bt, std::uint64_t bk) {
  if (at != bt) return at < bt;
  return ak < bk;
}

}  // namespace

Engine::PEvent* Engine::par_alloc(int node, Cycles t, std::uint64_t key,
                                  EventFn fn) {
  PNode& nd = pnodes_[static_cast<std::size_t>(node)];
  PEvent* e;
  if (!nd.free_list.empty()) {
    e = nd.free_list.back();
    nd.free_list.pop_back();
  } else {
    nd.pool.emplace_back();
    e = &nd.pool.back();
  }
  e->t = t;
  e->key = key;
  e->exclusive = false;
  e->fn = std::move(fn);
  e->op_begin = 0;
  e->op_count = 0;
  return e;
}

void Engine::par_free(int node, PEvent* e) {
  e->fn = nullptr;
  pnodes_[static_cast<std::size_t>(node)].free_list.push_back(e);
}

void Engine::par_push(int node, PEvent* e) {
  if (e->exclusive) {
    // Only reachable from a serial point (replay push or a solo execution's
    // schedule_exclusive), so the cap update cannot race a running round.
    excl_pending_.insert(e->t);
    excl_cap_.store(*excl_pending_.begin(), std::memory_order_release);
  }
  std::vector<PEvent*>& h = pnodes_[static_cast<std::size_t>(node)].heap;
  h.push_back(e);
  std::size_t i = h.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!pe_earlier(this, h[i]->t, h[i]->key, h[parent]->t, h[parent]->key)) break;
    std::swap(h[i], h[parent]);
    i = parent;
  }
}

Engine::PEvent* Engine::par_pop(int node) {
  std::vector<PEvent*>& h = pnodes_[static_cast<std::size_t>(node)].heap;
  PEvent* out = h.front();
  h.front() = h.back();
  h.pop_back();
  const std::size_t n = h.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && pe_earlier(this, h[l]->t, h[l]->key, h[best]->t, h[best]->key))
      best = l;
    if (r < n && pe_earlier(this, h[r]->t, h[r]->key, h[best]->t, h[best]->key))
      best = r;
    if (best == i) break;
    std::swap(h[i], h[best]);
    i = best;
  }
  return out;
}

// --------------------------------------------------------------------------
// Scheduling and capture
// --------------------------------------------------------------------------

Engine::ExecCtx& Engine::tls() {
  static thread_local ExecCtx c;
  return c;
}

void Engine::schedule_for(int node, Cycles t, EventFn fn) {
  if (!par_active_) {
    schedule(t, std::move(fn));
    return;
  }
  if (!par_running_) {
    // Setup phase, before workers exist: sequenced directly, in call order —
    // the same seq numbers the sequential engine hands out at setup.
    par_schedule_on(node, t, std::move(fn));
    return;
  }
  const ExecCtx& c = tls();
  AECDSM_CHECK_MSG(c.eng == this && c.node == node,
                   "cross-node schedule_for(" << node << ") from node " << c.node);
  par_schedule_current(t, std::move(fn));
}

void Engine::par_schedule_on(int node, Cycles t, EventFn fn) {
  PNode& nd = pnodes_[static_cast<std::size_t>(node)];
  AECDSM_CHECK(t >= nd.now);
  par_push(node, par_alloc(node, t, seq_++, std::move(fn)));
}

void Engine::par_schedule_current(Cycles t, EventFn fn, bool exclusive) {
  const ExecCtx& c = tls();
  AECDSM_CHECK_MSG(c.eng == this && c.node >= 0,
                   "schedule() outside any event in parallel mode; "
                   "use schedule_for() with an owning node");
  PNode& nd = pnodes_[static_cast<std::size_t>(c.node)];
  AECDSM_CHECK_MSG(t >= nd.now, "event scheduled into the past: t="
                                    << t << " now=" << nd.now);
  PEvent* e = par_alloc(c.node, t, kProvisional | nd.prov_next++, std::move(fn));
  e->exclusive = exclusive;
  par_push(c.node, e);
  POp op;
  op.kind = POp::Kind::kChild;
  op.child = e;
  nd.ops.push_back(std::move(op));
}

void Engine::schedule_exclusive(Cycles t, EventFn fn) {
  if (!par_active_) {
    schedule(t, std::move(fn));
    return;
  }
  AECDSM_CHECK_MSG(!par_running_ || par_solo_.load(std::memory_order_relaxed),
                   "schedule_exclusive from a concurrent round: the cap could "
                   "not be published before conflicting events run");
  // The cap only orders events that have not executed yet. For deliveries
  // that crossed the mesh this can never fire: the delivery time carries a
  // full lookahead margin, so it bounds every horizon under which earlier
  // rounds ran. A zero-latency self-send has no such margin — if its
  // handler lands inside the lookahead window of the capture round, an
  // already-executed event could sit past it. Abort loudly rather than
  // commit a silently nondeterministic schedule.
  Cycles frontier = 0;
  for (const PNode& nd : pnodes_) frontier = std::max(frontier, nd.now);
  AECDSM_CHECK_MSG(t >= frontier,
                   "exclusive event at " << t << " behind executed frontier "
                                         << frontier);
  par_schedule_current(t, std::move(fn), /*exclusive=*/true);
}

void Engine::capture_mesh_send(int src, int dst, std::size_t bytes,
                               EventFn deliver, bool exclusive) {
  const ExecCtx& c = tls();
  AECDSM_CHECK_MSG(c.eng == this && c.node == src,
                   "mesh send from node " << src << " captured on node " << c.node);
  AECDSM_CHECK_MSG(src != dst || exclusive,
                   "non-exclusive self-send must be scheduled, not captured");
  PNode& nd = pnodes_[static_cast<std::size_t>(src)];
  POp op;
  op.kind = POp::Kind::kSend;
  op.src = src;
  op.dst = dst;
  op.exclusive = exclusive;
  op.bytes = bytes;
  op.t_send = nd.now;
  op.deliver = std::move(deliver);
  nd.ops.push_back(std::move(op));
  nd.min_pending_send = std::min(nd.min_pending_send, nd.now);
  // A self-send delivers at t_send with no lookahead margin: hold this
  // node's own execution there until the replay pushes the delivery.
  if (src == dst) nd.self_hold = std::min(nd.self_hold, nd.now);
}

void Engine::note_local_send(std::size_t bytes) {
  const ExecCtx& c = tls();
  AECDSM_CHECK(c.eng == this && c.node >= 0);
  POp op;
  op.kind = POp::Kind::kLocalSend;
  op.bytes = bytes;
  pnodes_[static_cast<std::size_t>(c.node)].ops.push_back(std::move(op));
}

void Engine::at_commit(EventFn fn) {
  if (!parallel_running()) {
    fn();
    return;
  }
  const ExecCtx& c = tls();
  AECDSM_CHECK_MSG(c.eng == this && c.node >= 0,
                   "at_commit outside any event in parallel mode");
  POp op;
  op.kind = POp::Kind::kCommit;
  op.deliver = std::move(fn);
  pnodes_[static_cast<std::size_t>(c.node)].ops.push_back(std::move(op));
}

// --------------------------------------------------------------------------
// Horizon
// --------------------------------------------------------------------------

void Engine::publish_clock(int node) {
  PNode& nd = pnodes_[static_cast<std::size_t>(node)];
  Cycles c = nd.min_pending_send;
  if (!nd.heap.empty()) c = std::min(c, nd.heap.front()->t);
  // Release pairs with horizon()'s acquire: an event at t is only executed
  // once every clock has passed t - lookahead, so everything another node
  // did at least one lookahead earlier in simulated time happens-before it
  // on the host too. Protocol handlers rely on exactly that edge when they
  // read peer state that only message-separated events write.
  clocks_[static_cast<std::size_t>(node)].v.store(c, std::memory_order_release);
}

Cycles Engine::horizon() const {
  // A stale clock read under-estimates the horizon (clocks only grow within
  // a round) — conservative, never incorrect.
  Cycles m = kNever;
  for (const PClock& c : clocks_) m = std::min(m, c.v.load(std::memory_order_acquire));
  return m == kNever ? kNever : m + lookahead_;
}

Cycles Engine::exec_limit() const {
  // The exclusivity cap is constant within a round (only serial points
  // mutate it), so one acquire load per rescan suffices.
  return std::min(horizon(), excl_cap_.load(std::memory_order_acquire));
}

bool Engine::node_executable(int node, Cycles h) const {
  const PNode& nd = pnodes_[static_cast<std::size_t>(node)];
  if (nd.heap.empty()) return false;
  const PEvent* top = nd.heap.front();
  return top->t < h && top->t < nd.self_hold && !top->exclusive;
}

// --------------------------------------------------------------------------
// Workers
// --------------------------------------------------------------------------

bool Engine::try_execute(int node, Cycles h, bool force) {
  PNode& nd = pnodes_[static_cast<std::size_t>(node)];
  if (force) {
    AECDSM_CHECK(!nd.heap.empty());
  } else if (!node_executable(node, h)) {
    return false;
  }
  PEvent* e = par_pop(node);
  if (e->exclusive) {
    // Only a solo_step pops an exclusive event — a serial point.
    excl_pending_.erase(excl_pending_.find(e->t));
    excl_cap_.store(excl_pending_.empty() ? kNever : *excl_pending_.begin(),
                    std::memory_order_release);
  }
  nd.now = e->t;
  ExecCtx& c = tls();
  const ExecCtx saved = c;
  c = ExecCtx{this, node};
  e->op_begin = static_cast<std::uint32_t>(nd.ops.size());
  bool ok = true;
  try {
    e->fn();
  } catch (...) {
    ok = false;
    {
      std::lock_guard<std::mutex> lk(error_mu_);
      // Keep the globally earliest failure in (t, key) order: the closest
      // deterministic match for "the event the sequential engine would have
      // failed on".
      if (first_error_ == nullptr || e->t < error_t_ ||
          (e->t == error_t_ && e->key < error_key_)) {
        first_error_ = std::current_exception();
        error_t_ = e->t;
        error_key_ = e->key;
      }
    }
    par_abort_.store(true, std::memory_order_release);
  }
  c = saved;
  e->op_count = static_cast<std::uint32_t>(nd.ops.size()) - e->op_begin;
  nd.done.push_back(e);
  publish_clock(node);
  return ok;
}

void Engine::worker_loop(int worker) {
  const int n = static_cast<int>(pnodes_.size());
  std::vector<int> owned;
  for (int p = worker; p < n; p += par_threads_) owned.push_back(p);

  std::uint64_t polled = 0;
  std::uint64_t gen =
      wake_[static_cast<std::size_t>(worker)].gen.load(std::memory_order_acquire);

  std::vector<char> woke(static_cast<std::size_t>(par_threads_), 0);

  while (!par_done_.load(std::memory_order_acquire)) {
    bool progressed = false;
    if (!par_abort_.load(std::memory_order_acquire)) {
      Cycles h = exec_limit();
      for (int node : owned) {
        while (try_execute(node, h)) {
          progressed = true;
          if (has_deadline_ && (++polled & 0x3FFu) == 0 &&
              std::chrono::steady_clock::now() >= deadline_) {
            timed_out_.store(true, std::memory_order_release);
            par_abort_.store(true, std::memory_order_release);
            break;
          }
          if (par_abort_.load(std::memory_order_relaxed)) break;
          h = exec_limit();
        }
        if (par_abort_.load(std::memory_order_relaxed)) break;
        h = exec_limit();
      }
    }
    if (progressed) continue;

    // Idle. The last worker to arrive owns the round boundary: every other
    // worker is parked on its wake word and can only resume through a bump,
    // so the boundary owner probes all heaps authoritatively and either
    // wakes the workers whose nodes are executable (someone idled on a stale
    // horizon snapshot) or runs the replay at true quiescence.
    //
    // Waking transfers the idle slot: the waker decrements the count on the
    // parked worker's behalf (a bump and a slot release are always paired),
    // so the count reaches par_threads_ only when no worker has work even if
    // a woken worker has not been scheduled yet.
    const std::uint32_t count =
        idle_state_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (count == static_cast<std::uint32_t>(par_threads_)) {
      std::uint32_t expect = count;
      if (idle_state_.compare_exchange_strong(expect, count | kReplayClaim,
                                              std::memory_order_acq_rel)) {
        bool finish = false;
        if (!par_abort_.load(std::memory_order_acquire)) {
          try {
            bool runnable = false;
            const Cycles h0 = exec_limit();
            for (int p = 0; p < n; ++p) {
              if (node_executable(p, h0)) {
                runnable = true;
                break;
              }
            }
            if (!runnable) {
              dbg_replays_.fetch_add(1, std::memory_order_relaxed);
              replay_round();
              // Exclusive (or lookahead-starved) events block every node:
              // at quiescence the sequentially next event is simply the
              // global minimum, so step it alone — with all earlier events
              // committed this is exact sequential semantics — until a
              // round opens up or the heaps drain.
              for (;;) {
                bool empty = true;
                for (const PNode& nd : pnodes_) {
                  if (!nd.heap.empty()) {
                    empty = false;
                    break;
                  }
                }
                if (empty || par_abort_.load(std::memory_order_acquire)) {
                  finish = true;
                  break;
                }
                const Cycles lim = exec_limit();
                bool open = false;
                for (int p = 0; p < n; ++p) {
                  if (node_executable(p, lim)) {
                    open = true;
                    break;
                  }
                }
                if (open) break;
                solo_step();
              }
            } else {
              dbg_stale_.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (...) {
            // A CHECK in replay — an engine invariant, not an event failure.
            {
              std::lock_guard<std::mutex> lk(error_mu_);
              if (first_error_ == nullptr) {
                first_error_ = std::current_exception();
                error_t_ = 0;
                error_key_ = 0;
              }
            }
            par_abort_.store(true, std::memory_order_release);
            finish = true;
          }
        } else {
          finish = true;
        }
        if (finish) {
          par_done_.store(true, std::memory_order_release);
          for (int v = 0; v < par_threads_; ++v) {
            if (v != worker) wake_worker(v);
          }
          idle_state_.fetch_sub(kReplayClaim + 1, std::memory_order_acq_rel);
          return;
        }
        // Heaps are still exclusively ours (parked workers resume only via
        // our bumps): wake the owners of now-executable nodes; our own nodes
        // are probed by continuing into the main loop.
        std::fill(woke.begin(), woke.end(), 0);
        const Cycles h = exec_limit();
        for (int p = 0; p < n; ++p) {
          const int v = p % par_threads_;
          if (v != worker && woke[static_cast<std::size_t>(v)] == 0 &&
              node_executable(p, h)) {
            woke[static_cast<std::size_t>(v)] = 1;
            wake_worker(v);
          }
        }
        idle_state_.fetch_sub(kReplayClaim + 1, std::memory_order_acq_rel);
        continue;
      }
      // Claim lost; park like the rest (a future bump releases our slot).
    }
    std::atomic<std::uint64_t>& my_wake =
        wake_[static_cast<std::size_t>(worker)].gen;
    for (;;) {
      const std::uint64_t g = my_wake.load(std::memory_order_acquire);
      if (g != gen) {
        gen = g;
        break;  // the waker already released our idle slot
      }
      my_wake.wait(g, std::memory_order_acquire);
    }
  }
}

/// Release a parked worker: transfer its idle slot to it and bump its wake
/// word. Callers must know `v` is parked (they hold the replay claim).
void Engine::wake_worker(int v) {
  idle_state_.fetch_sub(1, std::memory_order_acq_rel);
  wake_[static_cast<std::size_t>(v)].gen.fetch_add(1, std::memory_order_acq_rel);
  wake_[static_cast<std::size_t>(v)].gen.notify_all();
}

/// Shutdown-only: bump every wake word without slot accounting. The idle
/// count is garbage afterwards, which is fine — par_done_ is set, so no
/// replay claim can matter again.
void Engine::wake_all_workers() {
  for (PWake& w : wake_) {
    w.gen.fetch_add(1, std::memory_order_acq_rel);
    w.gen.notify_all();
  }
}

bool Engine::solo_step() {
  const int n = static_cast<int>(pnodes_.size());
  int g = -1;
  for (int p = 0; p < n; ++p) {
    const PNode& nd = pnodes_[static_cast<std::size_t>(p)];
    if (nd.heap.empty()) continue;
    if (g < 0) {
      g = p;
      continue;
    }
    const PEvent* a = nd.heap.front();
    const PEvent* b = pnodes_[static_cast<std::size_t>(g)].heap.front();
    if (a->t < b->t || (a->t == b->t && a->key < b->key)) g = p;
  }
  if (g < 0) return false;
  par_solo_.store(true, std::memory_order_relaxed);
  try_execute(g, kNever, /*force=*/true);
  par_solo_.store(false, std::memory_order_relaxed);
  replay_round();
  return true;
}

// --------------------------------------------------------------------------
// Replay: the serial commit that makes the parallel order sequential
// --------------------------------------------------------------------------

void Engine::replay_round() {
  const int n = static_cast<int>(pnodes_.size());
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);

  // K-way merge of the per-node executed lists by (t, key). A list head's
  // key is always a real seq by the time it surfaces: a provisionally keyed
  // event is created by an earlier event of the same node, whose ops were
  // replayed before the child can become the head.
  struct Head {
    Cycles t;
    std::uint64_t key;
    int node;
  };
  std::vector<Head> merge;
  merge.reserve(static_cast<std::size_t>(n));
  auto head_less = [](const Head& a, const Head& b) {
    if (a.t != b.t) return a.t > b.t;  // std::push_heap keeps a max-heap
    return a.key > b.key;
  };
  for (int p = 0; p < n; ++p) {
    if (!pnodes_[static_cast<std::size_t>(p)].done.empty()) {
      PEvent* e = pnodes_[static_cast<std::size_t>(p)].done.front();
      if ((e->key & kProvisional) != 0) {
        std::ostringstream os;
        os << "replay: provisional front on node " << p << " t=" << e->t
           << " key=" << (e->key & ~kProvisional)
           << " done=" << pnodes_[static_cast<std::size_t>(p)].done.size();
        for (int q = 0; q < n; ++q) {
          const PNode& qq = pnodes_[static_cast<std::size_t>(q)];
          for (std::size_t oi = 0; oi < qq.ops.size(); ++oi) {
            if (qq.ops[oi].kind == POp::Kind::kChild && qq.ops[oi].child == e) {
              os << " parent-op on node " << q << " op#" << oi;
            }
          }
          os << " | n" << q << " done={";
          for (std::size_t di = 0; di < qq.done.size() && di < 4; ++di) {
            os << qq.done[di]->t << "/"
               << (qq.done[di]->key & ~kProvisional)
               << ((qq.done[di]->key & kProvisional) ? "P" : "") << " ";
          }
          os << "}";
        }
        AECDSM_CHECK_MSG(false, os.str());
      }
      merge.push_back(Head{e->t, e->key, p});
    }
  }
  std::make_heap(merge.begin(), merge.end(), head_less);

  while (!merge.empty()) {
    std::pop_heap(merge.begin(), merge.end(), head_less);
    const Head h = merge.back();
    merge.pop_back();
    PNode& nd = pnodes_[static_cast<std::size_t>(h.node)];
    PEvent* e = nd.done[cursor[static_cast<std::size_t>(h.node)]++];
    for (std::uint32_t i = 0; i < e->op_count; ++i) {
      POp& op = nd.ops[e->op_begin + i];
      switch (op.kind) {
        case POp::Kind::kChild:
          // The sequential engine would assign this seq inside the parent's
          // execution; same counter, same relative position. Rewriting the
          // key in place preserves every live ordering (see header note).
          op.child->key = seq_++;
          break;
        case POp::Kind::kSend: {
          Cycles td;
          if (op.src == op.dst) {
            // Captured self-send (exclusive deliveries only): bypasses the
            // mesh with zero latency, so it lands at t_send exactly; the
            // sender's self_hold kept its own frontier there.
            local_send_note_(op.bytes);
            td = op.t_send;
          } else {
            td = mesh_resolver_(op.src, op.dst, op.bytes, op.t_send);
            AECDSM_CHECK_MSG(td >= op.t_send + lookahead_,
                             "delivery at " << td << " violates lookahead from "
                                            << op.t_send);
          }
          PNode& dst = pnodes_[static_cast<std::size_t>(op.dst)];
          AECDSM_CHECK_MSG(td >= dst.now, "delivery at " << td
                                              << " behind frontier " << dst.now);
          PEvent* d = par_alloc(op.dst, td, seq_++, std::move(op.deliver));
          d->exclusive = op.exclusive;
          par_push(op.dst, d);
          break;
        }
        case POp::Kind::kLocalSend:
          local_send_note_(op.bytes);
          break;
        case POp::Kind::kCommit:
          op.deliver();
          break;
      }
    }
    if (cursor[static_cast<std::size_t>(h.node)] < nd.done.size()) {
      PEvent* nxt = nd.done[cursor[static_cast<std::size_t>(h.node)]];
      AECDSM_CHECK((nxt->key & kProvisional) == 0);
      merge.push_back(Head{nxt->t, nxt->key, h.node});
      std::push_heap(merge.begin(), merge.end(), head_less);
    }
  }

  for (int p = 0; p < n; ++p) {
    PNode& nd = pnodes_[static_cast<std::size_t>(p)];
    for (PEvent* e : nd.done) par_free(p, e);
    nd.done.clear();
    nd.ops.clear();
    nd.min_pending_send = kNever;
    nd.self_hold = kNever;
    publish_clock(p);
  }
}

// --------------------------------------------------------------------------
// Run
// --------------------------------------------------------------------------

void Engine::run_parallel() {
  for (int p = 0; p < static_cast<int>(pnodes_.size()); ++p) publish_clock(p);
  par_running_ = true;
  // A throw escaping worker_loop (a CHECK in replay, not an event body) is
  // recorded like an event failure so every thread unwinds and joins.
  auto guarded = [this](int w) {
    try {
      worker_loop(w);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(error_mu_);
        if (first_error_ == nullptr) {
          first_error_ = std::current_exception();
          error_t_ = 0;
          error_key_ = 0;
        }
      }
      par_abort_.store(true, std::memory_order_release);
      par_done_.store(true, std::memory_order_release);
      wake_all_workers();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(par_threads_ - 1));
  for (int w = 1; w < par_threads_; ++w) {
    workers.emplace_back([&guarded, w] { guarded(w); });
  }
  guarded(0);
  for (std::thread& t : workers) t.join();
  par_running_ = false;
  if (std::getenv("AECDSM_PAR_DEBUG") != nullptr) {
    std::fprintf(stderr, "par: events=%llu replays=%llu stale=%llu\n",
                 static_cast<unsigned long long>(seq_),
                 static_cast<unsigned long long>(
                     dbg_replays_.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(
                     dbg_stale_.load(std::memory_order_relaxed)));
  }
  if (first_error_ != nullptr) std::rethrow_exception(first_error_);
  if (timed_out_.load(std::memory_order_acquire)) {
    std::ostringstream os;
    os << "wall-clock timeout after " << seq_ << " events";
    throw TimeoutError(os.str());
  }
}

}  // namespace aecdsm::sim
