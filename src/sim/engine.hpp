// Discrete-event core of the execution-driven simulator.
//
// All simulation activity — processor wakeups, message deliveries, manager
// processing — flows through one time-ordered event queue, processed on the
// engine thread. Each simulated processor's application code runs on a
// fiber (sim::CoThread) that the engine switches to from inside one of that
// processor's events and that switches back before the event returns, so the
// whole simulation is a single logical thread and therefore deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace aecdsm::sim {

class Engine {
 public:
  using EventFn = std::function<void()>;

  /// Schedule `fn` at absolute simulated time `t`. Events never run before
  /// already-executed ones: t must be >= now() (checked).
  void schedule(Cycles t, EventFn fn) {
    AECDSM_CHECK_MSG(t >= now_, "event scheduled into the past: t=" << t
                                                                    << " now=" << now_);
    heap_.push_back(Event{t, seq_++, std::move(fn)});
    sift_up(heap_.size() - 1);
  }

  /// Time of the event currently (or most recently) being processed.
  Cycles now() const { return now_; }

  /// Abort run() with TimeoutError once the host wall clock passes
  /// `deadline` (BatchRunner --cell-timeout). Polled between events, so a
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

  bool idle() const { return heap_.empty(); }

  /// Total schedule() calls so far.
  std::uint64_t events_processed() const { return seq_; }

 private:
  struct Event {
    Cycles t;
    std::uint64_t seq;  ///< FIFO tie-break for equal-time events
    EventFn fn;
  };

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

  std::vector<Event> heap_;
  std::uint64_t seq_ = 0;
  Cycles now_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace aecdsm::sim
