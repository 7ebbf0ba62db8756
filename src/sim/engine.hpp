// Discrete-event core of the execution-driven simulator.
//
// All simulation activity — processor wakeups, message deliveries, manager
// processing — flows through one time-ordered event queue, processed on the
// engine thread. Each simulated processor's application code runs on a
// fiber (sim::CoThread) that the engine switches to from inside one of that
// processor's events and that switches back before the event returns, so the
// whole simulation is a single logical thread and therefore deterministic.
//
// Parallel mode (enable_parallel)
// -------------------------------
// A conservative parallel-DES mode partitions events by owning node and runs
// node groups on worker threads. The mesh's minimum cross-node latency L is
// the lookahead: an event at time t may execute once t < min(node clocks)+L,
// where a node's clock lower-bounds everything it can still cause (its next
// pending event, or its earliest not-yet-committed cross-node send). Clocks
// are published with atomics, so the horizon leapfrogs forward while workers
// run — message-free stretches parallelize without any barrier. When no node
// can advance (quiescence), a serial replay walks the executed events in the
// sequential engine's exact (time, seq) order, assigns the same seq numbers
// the sequential engine would have, and resolves captured mesh sends against
// the real contention state in that order. Replay-created deliveries always
// land at or beyond every node's executed frontier (they are at least one
// lookahead past the quiescent horizon), so parallel execution reproduces
// the sequential event order — and therefore every artifact byte — exactly.
// See DESIGN.md ("Parallel engine") for the full determinism argument.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aecdsm::sim {

class Engine {
 public:
  using EventFn = std::function<void()>;

  /// Resolves one captured cross-node mesh send at replay time: routes the
  /// message against the real contention state and returns the delivery
  /// time. Installed by the run driver (it wraps MeshNetwork::resolve_send).
  using MeshResolver =
      std::function<Cycles(int src, int dst, std::size_t bytes, Cycles t_send)>;
  /// Commits the statistics of one node-local (src == dst) send at replay.
  using LocalSendNote = std::function<void(std::size_t bytes)>;

  ~Engine();

  /// Schedule `fn` at absolute simulated time `t`. Events never run before
  /// already-executed ones: t must be >= now() (checked).
  void schedule(Cycles t, EventFn fn) {
    if (par_active_) {
      par_schedule_current(t, std::move(fn));
      return;
    }
    AECDSM_CHECK_MSG(t >= now_, "event scheduled into the past: t=" << t
                                                                    << " now=" << now_);
    heap_.push_back(Event{t, seq_++, std::move(fn)});
    sift_up(heap_.size() - 1);
  }

  /// schedule() with an explicit owning node, for call sites that run
  /// outside any event (setup-time Processor::start) or that know their
  /// owner statically. Identical to schedule() in sequential mode.
  void schedule_for(int node, Cycles t, EventFn fn);

  /// Time of the event currently (or most recently) being processed. In
  /// parallel mode, the executing node's local event time (well-defined on
  /// worker threads, including in application fibers they resume).
  Cycles now() const {
    if (par_active_) {
      const ExecCtx& c = tls();
      if (c.eng == this && c.node >= 0) return pnodes_[c.node].now;
    }
    return now_;
  }

  /// Abort run() with TimeoutError once the host wall clock passes
  /// `deadline` (BatchRunner --cell-timeout). Polled between events — in
  /// parallel mode by every worker group, not just the coordinator — so a
  /// single stuck event is not interruptible; good enough for runaway
  /// simulations, which are event-loop-bound.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Process events until the queue drains. The caller checks afterwards
  /// that every processor finished (an empty queue with blocked processors
  /// is a protocol deadlock).
  void run() {
    if (par_active_) {
      run_parallel();
      return;
    }
    std::uint64_t polled = 0;
    while (!heap_.empty()) {
      if (has_deadline_ && (++polled & 0x3FFu) == 0 &&
          std::chrono::steady_clock::now() >= deadline_) {
        std::ostringstream os;
        os << "wall-clock timeout after " << seq_ << " events at simulated time "
           << now_;
        throw TimeoutError(os.str());
      }
      Event ev = pop_min();
      AECDSM_CHECK(ev.t >= now_);
      now_ = ev.t;
      ev.fn();
    }
  }

  bool idle() const {
    if (par_active_) {
      for (const PNode& n : pnodes_) {
        if (!n.heap.empty()) return false;
      }
      return true;
    }
    return heap_.empty();
  }

  /// Total schedule() calls so far. Parallel replay assigns the sequential
  /// engine's seq numbers, so this matches the sequential count exactly.
  std::uint64_t events_processed() const { return seq_; }

  // --- Parallel mode --------------------------------------------------------

  /// Switch this engine into conservative parallel mode before any event is
  /// scheduled. `lookahead` must lower-bound the send-to-delivery latency of
  /// every possible cross-node message. No-op when threads <= 1.
  void enable_parallel(int threads, int num_nodes, Cycles lookahead,
                       MeshResolver resolver, LocalSendNote local_note);

  bool parallel() const { return par_active_; }

  /// True while parallel workers are executing events (MeshNetwork routes
  /// sends into capture_mesh_send instead of scheduling directly).
  bool parallel_running() const { return par_active_ && par_running_; }

  /// Record a cross-node send made by the currently executing node. The
  /// send is routed (and its delivery scheduled) during the next replay, in
  /// sequential event order. An `exclusive` send's delivery event runs solo
  /// (see schedule_exclusive); src == dst is allowed for exclusive sends —
  /// the delivery lands at t_send (local sends bypass the mesh) and the
  /// node holds its own execution until the replay pushes it.
  void capture_mesh_send(int src, int dst, std::size_t bytes, EventFn deliver,
                         bool exclusive = false);

  /// Like schedule(), but the event is *exclusive*: in parallel mode it only
  /// executes at global quiescence, alone, with every earlier (t, key) event
  /// committed and no other worker running — so its body may read and write
  /// cross-node shared state exactly as under the sequential engine. In
  /// sequential mode this is schedule().
  ///
  /// Soundness requires the exclusivity cap to be published before any
  /// worker could pick a conflicting event, so in parallel-running mode this
  /// may only be called from a serial context: from inside an exclusive
  /// event (which runs solo), the shape Machine::post_exclusive guarantees.
  void schedule_exclusive(Cycles t, EventFn fn);

  /// Record a node-local send's statistics for replay-ordered commit.
  void note_local_send(std::size_t bytes);

  /// Run `fn` in sequential commit order. Sequentially (and outside a
  /// parallel round) it runs inline; during a parallel round it is captured
  /// with the executing event and invoked at replay, serially, in the exact
  /// (time, seq) order the sequential engine would have produced. For
  /// write-only bookkeeping that several nodes' events mutate but no event
  /// reads back — e.g. a scoring-only predictor — this gives the sequential
  /// final state without serializing the events themselves. The closure must
  /// not schedule events or send messages.
  void at_commit(EventFn fn);

 private:
  struct Event {
    Cycles t;
    std::uint64_t seq;  ///< FIFO tie-break for equal-time events
    EventFn fn;
  };

  // --- Parallel-mode data ---------------------------------------------------

  /// Provisional-order bit: keys of events created during the current round
  /// order after every already-sequenced event (same-time ties included),
  /// and among themselves by per-node creation order — exactly the relative
  /// order replay's real seq assignment produces, so rewriting a key from
  /// provisional to real never reorders a pair of live events.
  static constexpr std::uint64_t kProvisional = std::uint64_t{1} << 63;
  static constexpr Cycles kNever = ~Cycles{0};

  struct PEvent {
    Cycles t = 0;
    std::uint64_t key = 0;  ///< final seq, or kProvisional | creation order
    bool exclusive = false;  ///< runs solo at quiescence (schedule_exclusive)
    EventFn fn;
    std::uint32_t op_begin = 0;  ///< first captured op (set at execution)
    std::uint32_t op_count = 0;
  };

  struct POp {
    enum class Kind : std::uint8_t { kChild, kSend, kLocalSend, kCommit };
    Kind kind = Kind::kChild;
    PEvent* child = nullptr;  ///< kChild: the scheduled same-node event
    int src = -1, dst = -1;   ///< kSend
    bool exclusive = false;   ///< kSend: delivery event runs solo
    std::size_t bytes = 0;    ///< kSend / kLocalSend
    Cycles t_send = 0;        ///< kSend
    EventFn deliver;          ///< kSend / kCommit
  };

  struct alignas(64) PClock {
    std::atomic<Cycles> v{0};
  };

  /// Per-worker parking word: a worker with no executable events waits on
  /// its own generation counter, and the round-boundary claimant wakes only
  /// the workers whose nodes became runnable — node-to-node ping-pong within
  /// one worker's group costs no wakeups at all.
  struct alignas(64) PWake {
    std::atomic<std::uint64_t> gen{0};
  };

  struct PNode {
    std::vector<PEvent*> heap;  ///< min-heap by (t, key)
    Cycles now = 0;
    std::vector<POp> ops;          ///< this round's captured ops, call order
    std::vector<PEvent*> done;     ///< this round's executed events, in order
    Cycles min_pending_send = kNever;
    /// Earliest uncommitted *self*-send (src == dst) delivery this node
    /// captured. Its delivery event is only pushed at replay, so the node
    /// must not run its own events at or past that time until then — other
    /// nodes are unaffected (the delivery is same-node and min_pending_send
    /// already bounds the clock).
    Cycles self_hold = kNever;
    std::uint64_t prov_next = 0;   ///< provisional key counter
    std::deque<PEvent> pool;       ///< stable event storage
    std::vector<PEvent*> free_list;
  };

  struct ExecCtx {
    Engine* eng = nullptr;
    int node = -1;
  };
  /// The calling OS thread's context. Out of line on purpose: application
  /// fibers run inside Engine calls and may be resumed on another worker
  /// thread, so a TLS address computed before a switch must not be reused
  /// after it (as an inlined thread_local access may be).
  [[gnu::noinline]] static ExecCtx& tls();

  // --- Sequential engine ----------------------------------------------------

  // The event queue is a hand-rolled binary min-heap rather than a
  // std::priority_queue: top() of the standard adaptor is const, so moving
  // the handler out would need a const_cast. Owning the vector lets pop_min
  // move the element legitimately. Ordering is (t, seq): earliest time
  // first, FIFO among equal times.
  static bool earlier(const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && earlier(heap_[l], heap_[best])) best = l;
      if (r < n && earlier(heap_[r], heap_[best])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  Event pop_min() {
    Event out = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

  // --- Parallel engine (engine.cpp) ----------------------------------------

  void run_parallel();
  void par_schedule_current(Cycles t, EventFn fn, bool exclusive = false);
  void par_schedule_on(int node, Cycles t, EventFn fn);
  PEvent* par_alloc(int node, Cycles t, std::uint64_t key, EventFn fn);
  void par_free(int node, PEvent* e);
  void par_push(int node, PEvent* e);
  PEvent* par_pop(int node);
  void publish_clock(int node);
  Cycles horizon() const;
  Cycles exec_limit() const;
  void worker_loop(int worker);
  bool try_execute(int node, Cycles h, bool force = false);
  bool node_executable(int node, Cycles h) const;
  /// Pop and execute the globally earliest pending event, alone, then
  /// replay. Claimant-only, at quiescence. Returns false if every heap was
  /// empty.
  bool solo_step();
  void replay_round();
  void wake_worker(int v);
  void wake_all_workers();

  std::vector<Event> heap_;
  std::uint64_t seq_ = 0;
  Cycles now_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  // Parallel state (inert unless par_active_).
  bool par_active_ = false;
  bool par_running_ = false;
  int par_threads_ = 1;
  Cycles lookahead_ = 0;
  MeshResolver mesh_resolver_;
  LocalSendNote local_send_note_;
  std::vector<PNode> pnodes_;
  std::vector<PClock> clocks_;
  std::vector<PWake> wake_;
  /// Idle-worker count plus kReplayClaim. Leaving idle (to touch event
  /// heaps) and claiming a replay (which mutates every heap) are CAS
  /// transitions on this one word, so they linearize: no worker can probe a
  /// heap while a replay runs, and no replay can start once a worker has
  /// committed to waking.
  std::atomic<std::uint32_t> idle_state_{0};
  static constexpr std::uint32_t kReplayClaim = std::uint32_t{1} << 31;
  /// Times of pending exclusive events. Mutated only at serial points — a
  /// replay push, a solo_step pop, or a schedule_exclusive from inside a
  /// solo execution — all under the replay claim, so the published cap is
  /// constant within a round: a worker can never race past a cap it has not
  /// seen. excl_cap_ mirrors the minimum for lock-free reads by workers.
  std::multiset<Cycles> excl_pending_;
  std::atomic<Cycles> excl_cap_{kNever};
  /// True while the claimant is executing an event solo (legal context for
  /// schedule_exclusive in parallel-running mode).
  std::atomic<bool> par_solo_{false};
  std::atomic<bool> par_abort_{false};
  std::atomic<bool> par_done_{false};
  std::atomic<bool> timed_out_{false};
  std::atomic<std::uint64_t> dbg_replays_{0};
  std::atomic<std::uint64_t> dbg_stale_{0};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
  Cycles error_t_ = kNever;
  std::uint64_t error_key_ = ~std::uint64_t{0};
};

}  // namespace aecdsm::sim
