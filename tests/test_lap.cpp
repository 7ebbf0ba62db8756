// Unit tests for the LAP predictor (section 2 of the paper): each low-level
// technique in isolation, the affinity-set threshold rule, the combination
// algorithm of §2.2 step by step, and the success-rate scoring.
#include <gtest/gtest.h>

#include "policy/lap.hpp"

namespace aecdsm::test {
namespace {

using policy::LockLap;

constexpr int kProcs = 8;
constexpr int kK = 2;
constexpr double kThreshold = 0.6;

TEST(Lap, WaitingQueueHeadIsThePrediction) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.enqueue_waiter(5);
  lap.enqueue_waiter(2);
  const auto u = lap.compute_update_set(0);
  // §2.2 step 1: queue head only, and the algorithm stops.
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], 5);
}

TEST(Lap, EmptyStateYieldsEmptySet) {
  LockLap lap(kProcs, kK, kThreshold);
  EXPECT_TRUE(lap.compute_update_set(0).empty());
}

TEST(Lap, AffinityDrivesPredictionWithoutQueue) {
  LockLap lap(kProcs, kK, kThreshold);
  // Build history: 0 hands off to 3 five times, to 4 once.
  for (int i = 0; i < 5; ++i) {
    lap.compute_update_set(0);
    lap.record_transfer(0, 3);
    lap.compute_update_set(3);
    lap.record_transfer(3, 0);
  }
  lap.compute_update_set(0);
  lap.record_transfer(0, 4);
  lap.compute_update_set(4);
  lap.record_transfer(4, 0);

  // aff(0,3)=5, aff(0,4)=1; mean over 7 others = 6/7; cut = 1.6*6/7 ~ 1.37.
  const auto aff = lap.affinity_set(0);
  ASSERT_FALSE(aff.empty());
  EXPECT_EQ(aff[0], 3);  // strongest first
  // 4 is below the 60%-above-mean cut? aff=1 < 1.37 -> excluded.
  EXPECT_EQ(aff.size(), 1u);

  const auto u = lap.compute_update_set(0);
  ASSERT_FALSE(u.empty());
  EXPECT_EQ(u[0], 3);
  // Step 4 completes the set with any nonzero-affinity processor: 4.
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[1], 4);
}

TEST(Lap, AffinityThresholdExcludesWeakTargets) {
  LockLap lap(kProcs, kK, /*threshold=*/0.6);
  // Strong affinity to 1 (ten transfers), weak to 2 (one): the mean is
  // 11/7 ~ 1.57, the 60%-above cut 2.51 — only 1 qualifies.
  for (int i = 0; i < 10; ++i) lap.record_transfer(0, 1);
  lap.record_transfer(0, 2);
  const auto aff = lap.affinity_set(0);
  ASSERT_EQ(aff.size(), 1u);
  EXPECT_EQ(aff[0], 1);
  // Threshold 0 lowers the cut to the mean itself: still only 1 (10 >= 1.57
  // but 1 < 1.57).
  LockLap lap0(kProcs, kK, 0.0);
  for (int i = 0; i < 10; ++i) lap0.record_transfer(0, 1);
  lap0.record_transfer(0, 2);
  EXPECT_EQ(lap0.affinity_set(0).size(), 1u);
  // Uniform history with a zero-diluted mean keeps every target in the set.
  LockLap uni(kProcs, kK, 0.6);
  for (const ProcId q : {1, 2, 3}) uni.record_transfer(0, q);
  EXPECT_EQ(uni.affinity_set(0).size(), 3u);
}

TEST(Lap, VirtualQueueFillsWhenNoAffinity) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.add_notice(6);
  lap.add_notice(1);
  lap.add_notice(4);
  const auto u = lap.compute_update_set(0);
  // Step 4: virtual queue order, truncated to K.
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[0], 6);
  EXPECT_EQ(u[1], 1);
}

TEST(Lap, VirtualQueueSkipsSelf) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.add_notice(0);
  lap.add_notice(2);
  const auto u = lap.compute_update_set(0);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], 2);
}

TEST(Lap, Step3PrefersVirtualQueueMembersWithAffinity) {
  LockLap lap(kProcs, /*K=*/2, kThreshold);
  // Affinity history: strong to 3 (enters affinity set), weak to 5.
  for (int i = 0; i < 4; ++i) {
    lap.compute_update_set(0);
    lap.record_transfer(0, 3);
  }
  lap.compute_update_set(0);
  lap.record_transfer(0, 5);
  // Virtual queue: 6 (no affinity) then 5 (has affinity).
  lap.add_notice(6);
  lap.add_notice(5);
  const auto u = lap.compute_update_set(0);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[0], 3);  // affinity set
  EXPECT_EQ(u[1], 5);  // virtualQ ∩ nonzero affinity beats plain virtualQ
}

TEST(Lap, ConsumeNoticeRemovesOldestEntry) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.add_notice(2);
  lap.add_notice(3);
  lap.add_notice(2);
  lap.consume_notice(2);
  const auto u = lap.compute_update_set(0);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[0], 3);
  EXPECT_EQ(u[1], 2);  // the second notice from 2 remains
}

TEST(Lap, ScoringCountsHitsAndMisses) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.enqueue_waiter(4);
  lap.compute_update_set(1);  // predicts {4}
  lap.dequeue_waiter();
  lap.record_transfer(1, 4);  // hit
  lap.compute_update_set(4);  // empty prediction
  lap.record_transfer(4, 2);  // miss
  const auto& s = lap.scores();
  EXPECT_EQ(s.lap.predictions, 2u);
  EXPECT_EQ(s.lap.hits, 1u);
  EXPECT_DOUBLE_EQ(s.lap.rate(), 0.5);
  EXPECT_EQ(s.waitq.predictions, 2u);
  EXPECT_EQ(s.waitq.hits, 1u);
}

TEST(Lap, SelfTransfersAreNotScored) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.compute_update_set(1);
  lap.record_transfer(1, 1);
  EXPECT_EQ(lap.scores().lap.predictions, 0u);
  EXPECT_EQ(lap.affinity(1, 1), 0);
}

TEST(Lap, TransferHistoryBuildsAffinityMatrix) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.record_transfer(2, 5);
  lap.record_transfer(2, 5);
  lap.record_transfer(5, 2);
  EXPECT_EQ(lap.affinity(2, 5), 2);
  EXPECT_EQ(lap.affinity(5, 2), 1);
  EXPECT_EQ(lap.affinity(2, 3), 0);
}

TEST(Lap, WaitQueueFifo) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.enqueue_waiter(3);
  lap.enqueue_waiter(1);
  EXPECT_EQ(lap.waiting_count(), 2u);
  EXPECT_EQ(lap.dequeue_waiter(), 3);
  EXPECT_EQ(lap.dequeue_waiter(), 1);
  EXPECT_FALSE(lap.has_waiters());
}

TEST(Lap, SnapshotScoredOnceThenRetaken) {
  LockLap lap(kProcs, kK, kThreshold);
  lap.enqueue_waiter(4);
  lap.compute_update_set(1);
  lap.dequeue_waiter();
  lap.record_transfer(1, 4);  // scores the snapshot
  lap.record_transfer(1, 5);  // no live snapshot: affinity only
  EXPECT_EQ(lap.scores().lap.predictions, 1u);
  EXPECT_EQ(lap.affinity(1, 5), 1);
}

TEST(Lap, UpdateSetSizeOneKeepsOnlyBest) {
  LockLap lap(kProcs, /*K=*/1, kThreshold);
  for (int i = 0; i < 4; ++i) {
    lap.compute_update_set(0);
    lap.record_transfer(0, 3);
  }
  lap.add_notice(6);
  const auto u = lap.compute_update_set(0);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], 3);
}

TEST(Lap, DisabledAffinityViaHugeThreshold) {
  LockLap lap(kProcs, kK, 1e30);
  for (int i = 0; i < 10; ++i) {
    lap.compute_update_set(0);
    lap.record_transfer(0, 3);
  }
  EXPECT_TRUE(lap.affinity_set(0).empty());
  // Step 4's nonzero-affinity fallback still finds 3.
  const auto u = lap.compute_update_set(0);
  ASSERT_FALSE(u.empty());
  EXPECT_EQ(u[0], 3);
}

}  // namespace
}  // namespace aecdsm::test
