// Lock Acquirer Prediction (LAP) — section 2 of the paper.
//
// For each lock the manager maintains the three low-level predictors:
//   * waiting queue  — the real FIFO of blocked requesters (perfect when
//                      there is contention),
//   * virtual queue  — acquire notices sent ahead of the real requests,
//   * transfer affinity — aff_l(p,q): past ownership transfers p -> q; the
//                      affinity set of p holds every q whose affinity is at
//                      least (1 + threshold) times p's mean affinity.
// compute_update_set() combines them with the exact algorithm of §2.2.
//
// The class also scores every low-level combination against the realized
// acquisition order, producing the per-variable success rates of Table 3.
//
// LAP lives in the policy layer because it is protocol-neutral machinery:
// AEC consumes its predictions (PushSelector::kLapUpdateSet), while
// TreadMarks and Munin-ERC run it in scoring-only mode for the paper's §5.1
// robustness claim.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"

namespace aecdsm::policy {

/// Success-rate counters for one prediction strategy on one lock variable.
struct PredictorScore {
  std::uint64_t predictions = 0;  ///< ownership transfers scored
  std::uint64_t hits = 0;         ///< transfers whose target was predicted

  double rate() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(predictions);
  }
};

/// Scores for the paper's four Table 3 columns.
struct LapScores {
  std::uint64_t acquire_events = 0;
  PredictorScore lap;              ///< full combination (what AEC uses)
  PredictorScore waitq;            ///< waiting queue alone
  PredictorScore waitq_affinity;   ///< waiting queue + affinity
  PredictorScore waitq_virtualq;   ///< waiting queue + virtual queue
};

class LockLap {
 public:
  LockLap(int num_procs, int update_set_size, double affinity_threshold);

  // --- Feeding the low-level predictors -----------------------------------

  /// A processor announced it will acquire the lock soon (virtual queue).
  void add_notice(ProcId p);

  /// p's intention was consumed (it acquired, or its queued request was
  /// granted); drop its oldest pending notice.
  void consume_notice(ProcId p);

  /// The real FIFO waiting queue, maintained by the lock manager.
  void enqueue_waiter(ProcId p) { waiting_.push_back(p); }
  ProcId dequeue_waiter();
  /// Out-of-order removal for the hier strategy's cohort-first grants
  /// (locks::pick_waiter chooses the index; FIFO order of the rest holds).
  ProcId dequeue_waiter_at(std::size_t idx);
  bool has_waiters() const { return !waiting_.empty(); }
  std::size_t waiting_count() const { return waiting_.size(); }
  /// Read-only view for strategy code (locks::pick_waiter) and MCS
  /// predecessor lookup; mutation stays behind the enqueue/dequeue API.
  const std::deque<ProcId>& waiting() const { return waiting_; }
  bool waiting_contains(ProcId p) const {
    for (const ProcId q : waiting_) {
      if (q == p) return true;
    }
    return false;
  }

  /// Crash failover: the waiting and virtual queues die with the old
  /// manager's custody and are rebuilt from the requesters' replayed
  /// requests/notices; the affinity history is shared state that survives.
  void reset_queues() {
    waiting_.clear();
    virtual_queue_.clear();
  }

  /// Record a realized ownership transfer from -> to (affinity history) and
  /// score all predictor snapshots taken for `from`.
  void record_transfer(ProcId from, ProcId to);

  // --- Prediction ----------------------------------------------------------

  /// §2.2: the update set of (future releaser) p, at most K processors.
  /// Also snapshots what each low-level combination would have predicted,
  /// so record_transfer() can score them later.
  std::vector<ProcId> compute_update_set(ProcId p);

  /// Affinity set A_l(p): processors with affinity >(1+threshold)*mean,
  /// ordered by descending affinity (ties by pid).
  std::vector<ProcId> affinity_set(ProcId p) const;

  int affinity(ProcId from, ProcId to) const;

  void count_acquire_event() { ++scores_.acquire_events; }
  const LapScores& scores() const { return scores_; }

  const std::deque<ProcId>& virtual_queue() const { return virtual_queue_; }

 private:
  static bool contains(const std::vector<ProcId>& v, ProcId p);

  const int nprocs_;
  const int k_;
  const double threshold_;

  std::deque<ProcId> waiting_;
  std::deque<ProcId> virtual_queue_;
  std::vector<int> affinity_;  ///< nprocs x nprocs, row = from

  // Prediction snapshots per releaser, scored at the next transfer.
  struct Snapshot {
    bool valid = false;
    std::vector<ProcId> lap;
    std::vector<ProcId> waitq;
    std::vector<ProcId> waitq_affinity;
    std::vector<ProcId> waitq_virtualq;
  };
  std::vector<Snapshot> snapshot_;  ///< indexed by releaser pid

  LapScores scores_;
};

}  // namespace aecdsm::policy
