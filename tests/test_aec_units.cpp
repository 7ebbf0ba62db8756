// Behavioural tests of the AEC protocol machinery, observed through run
// statistics and the shared manager state: update-set push delivery, the
// acquire-counter freshness rules, self-reacquisition, invalidation lists,
// barrier write-notice routing, home reassignment, and overlap accounting.
#include <gtest/gtest.h>

#include "aec/suite.hpp"
#include "apps/app_common.hpp"
#include "dsm/shared_array.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

/// Ping-pong increments under one lock between two processors — the
/// canonical chain the LAP push optimizes.
class PingPongApp : public apps::AppBase {
 public:
  explicit PingPongApp(int iters) : iters_(iters) {}
  std::string name() const override { return "pingpong"; }
  std::size_t shared_bytes() const override { return 4096; }
  void setup(dsm::Machine& m) override {
    counter_ = dsm::SharedArray<std::uint64_t>::alloc(m, 1);
  }
  void body(dsm::Context& ctx) override {
    for (int i = 0; i < iters_; ++i) {
      ctx.lock(0);
      counter_.put(ctx, 0, counter_.get(ctx, 0) + 1);
      ctx.unlock(0);
      ctx.compute(200);
    }
    ctx.barrier();
    if (ctx.pid() == 0) {
      set_ok(counter_.get(ctx, 0) ==
             static_cast<std::uint64_t>(iters_) * static_cast<std::uint64_t>(ctx.nprocs()));
    }
  }

 private:
  int iters_;
  dsm::SharedArray<std::uint64_t> counter_;
};

RunStats run_aec(dsm::App& app, const SystemParams& params, bool lap,
                 std::shared_ptr<const aec::AecShared>* shared_out = nullptr) {
  const policy::ConsistencyPolicy* pol =
      policy::find_policy(lap ? "AEC" : "AEC-noLAP");
  EXPECT_NE(pol, nullptr);
  aec::AecSuite suite(*pol);
  dsm::RunConfig rc;
  rc.params = params;
  const RunStats stats = dsm::run_app(app, suite.suite(), rc);
  if (shared_out != nullptr) *shared_out = suite.shared_handle();
  return stats;
}

TEST(AecProtocol, LapReducesFaultStallOnContendedChain) {
  PingPongApp a(10), b(10);
  const RunStats with_lap = run_aec(a, small_params(4), true);
  const RunStats without = run_aec(b, small_params(4), false);
  ASSERT_TRUE(with_lap.result_valid);
  ASSERT_TRUE(without.result_valid);
  EXPECT_LT(with_lap.faults.fault_cycles, without.faults.fault_cycles);
  EXPECT_LE(with_lap.finish_time, without.finish_time);
}

TEST(AecProtocol, UpdateSetsComputedForEveryAcquire) {
  PingPongApp app(6);
  std::shared_ptr<const aec::AecShared> shared;
  const RunStats stats = run_aec(app, small_params(4), true, &shared);
  ASSERT_TRUE(stats.result_valid);
  ASSERT_NE(shared, nullptr);
  // Lock 0 lives in manager node 0's shard.
  const auto it = shared->locks.shards[0].find(0);
  ASSERT_NE(it, shared->locks.shards[0].end());
  EXPECT_EQ(it->second.lap.scores().acquire_events, 24u);
  // Under heavy contention the waiting queue predicts nearly perfectly.
  EXPECT_GT(it->second.lap.scores().lap.rate(), 0.8);
}

TEST(AecProtocol, AcquireCountersIncreaseMonotonically) {
  PingPongApp app(5);
  std::shared_ptr<const aec::AecShared> shared;
  run_aec(app, small_params(4), true, &shared);
  const auto& rec = shared->locks.shards[0].at(0);
  EXPECT_EQ(rec.counter, 20u);  // 5 iterations x 4 processors
  EXPECT_FALSE(rec.taken);
}

TEST(AecProtocol, SelfReacquisitionIsCheap) {
  // One processor repeatedly takes an uncontended lock: after the first
  // acquire there is nothing to invalidate or fetch.
  dsm::SharedArray<std::uint64_t> cell;
  LambdaApp app(
      "selfreacq", 4096,
      [&](dsm::Machine& m) { cell = dsm::SharedArray<std::uint64_t>::alloc(m, 1); },
      [&](dsm::Context& ctx) {
        if (ctx.pid() == 0) {
          for (int i = 0; i < 10; ++i) {
            ctx.lock(0);
            cell.put(ctx, 0, cell.get(ctx, 0) + 1);
            ctx.unlock(0);
          }
        }
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(cell.get(ctx, 0) == 10);
      });
  const RunStats stats = run_protocol(app, "AEC", small_params(2));
  ASSERT_TRUE(stats.result_valid);
  // Each release seals the critical section's diff, so every CS re-twins on
  // its first write (one write fault per acquisition) — but reacquisition
  // never invalidates or refetches, so there are no read faults beyond the
  // final validation pass.
  EXPECT_LE(stats.faults.write_faults, 11u);
  EXPECT_LE(stats.faults.read_faults, 2u);
}

TEST(AecProtocol, BarrierPropagatesOutsideWritesViaNotices) {
  // Writer/reader across a barrier: the reader's copy must be invalidated
  // and reconstructed — visible as read faults and applied diffs.
  dsm::SharedArray<std::uint32_t> arr;
  LambdaApp app(
      "notices", 8192,
      [&](dsm::Machine& m) { arr = dsm::SharedArray<std::uint32_t>::alloc(m, 128); },
      [&](dsm::Context& ctx) {
        for (int round = 0; round < 3; ++round) {
          if (ctx.pid() == 0) {
            for (std::size_t i = 0; i < 128; ++i) {
              arr.put(ctx, i, static_cast<std::uint32_t>(round * 1000 + i));
            }
          }
          ctx.barrier();
          if (ctx.pid() == 1) {
            bool good = true;
            for (std::size_t i = 0; i < 128; ++i) {
              if (arr.get(ctx, i) != static_cast<std::uint32_t>(round * 1000 + i)) {
                good = false;
              }
            }
            if (!good) app.set_ok(false);
          }
          ctx.barrier();
        }
        if (ctx.pid() == 0) app.set_ok(true);
      });
  const RunStats stats = run_protocol(app, "AEC", small_params(2));
  ASSERT_TRUE(stats.result_valid);
  EXPECT_GT(stats.diffs.diffs_created, 0u);
  EXPECT_GT(stats.diffs.diffs_applied, 0u);
}

TEST(AecProtocol, HomeReassignmentFollowsWriters) {
  dsm::SharedArray<std::uint32_t> arr;
  std::shared_ptr<const aec::AecShared> shared;
  LambdaApp app(
      "homes", 4096,
      [&](dsm::Machine& m) { arr = dsm::SharedArray<std::uint32_t>::alloc(m, 8); },
      [&](dsm::Context& ctx) {
        if (ctx.pid() == 2) {
          for (std::size_t i = 0; i < 8; ++i) arr.put(ctx, i, 5);
        }
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(arr.get(ctx, 0) == 5);
        ctx.barrier();
      });
  aec::AecSuite suite;
  dsm::RunConfig rc;
  rc.params = small_params(4);
  const RunStats stats = dsm::run_app(app, suite.suite(), rc);
  ASSERT_TRUE(stats.result_valid);
  // Page 0 was written outside critical sections by processor 2 only: the
  // barrier manager makes the first writer the page's home.
  EXPECT_EQ(suite.shared()->home[0], 2);
}

TEST(AecProtocol, DiffCreationOverlapsAcquireWaits) {
  // Processors write private pages outside CSes and then contend on a lock:
  // the outside diffs flush during the lock wait (hidden creation).
  dsm::SharedArray<std::uint64_t> blocks;
  dsm::SharedArray<std::uint64_t> cell;
  LambdaApp app(
      "overlap", 1 << 16,
      [&](dsm::Machine& m) {
        blocks = dsm::SharedArray<std::uint64_t>::alloc(m, 4 * 512);
        cell = dsm::SharedArray<std::uint64_t>::alloc(m, 1);
      },
      [&](dsm::Context& ctx) {
        const std::size_t base = static_cast<std::size_t>(ctx.pid()) * 512;
        for (int round = 0; round < 2; ++round) {
          for (std::size_t i = 0; i < 512; ++i) {
            blocks.put(ctx, base + i, static_cast<std::uint64_t>(round + 1));
          }
          ctx.lock(0);
          cell.put(ctx, 0, cell.get(ctx, 0) + 1);
          ctx.unlock(0);
          ctx.barrier();
          // Touch the neighbour's block so the flushes matter next round.
          const std::size_t nb = ((static_cast<std::size_t>(ctx.pid()) + 1) % 4) * 512;
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < 512; i += 32) sum += blocks.get(ctx, nb + i);
          ctx.compute(sum % 3);
          ctx.barrier();
        }
        if (ctx.pid() == 0) app.set_ok(cell.get(ctx, 0) == 8);
      });
  const RunStats stats = run_protocol(app, "AEC", small_params(4));
  ASSERT_TRUE(stats.result_valid);
  EXPECT_GT(stats.diffs.create_hidden_cycles, 0u);
  EXPECT_LE(stats.diffs.create_hidden_cycles, stats.diffs.create_cycles);
}

TEST(AecProtocol, NoLapTradesPushesForFetches) {
  PingPongApp a(8), b(8);
  const RunStats with_lap = run_aec(a, small_params(4), true);
  const RunStats without = run_aec(b, small_params(4), false);
  ASSERT_TRUE(with_lap.result_valid);
  ASSERT_TRUE(without.result_valid);
  // Without pushes the chain diffs are fetched at faults: more fault stall
  // and at least as many fault events.
  EXPECT_GT(without.faults.fault_cycles, with_lap.faults.fault_cycles);
  EXPECT_GE(without.faults.read_faults + without.faults.write_faults,
            with_lap.faults.read_faults + with_lap.faults.write_faults);
}

TEST(AecProtocol, MergedDiffStatisticsAccumulate) {
  PingPongApp app(8);
  const RunStats stats = run_aec(app, small_params(4), true);
  ASSERT_TRUE(stats.result_valid);
  // Successive owners of the chain merge their diff with the inherited one.
  EXPECT_GT(stats.diffs.merged_diffs, 0u);
  EXPECT_GT(stats.diffs.merged_result_bytes, 0u);
}

TEST(AecProtocol, WorksWithUpdateSetSizeSweep) {
  for (const int k : {1, 2, 3}) {
    PingPongApp app(6);
    SystemParams params = small_params(4);
    params.update_set_size = k;
    const RunStats stats = run_aec(app, params, true);
    EXPECT_TRUE(stats.result_valid) << "K=" << k;
  }
}

TEST(AecProtocol, VirtualQueueDisableIsHonoured) {
  policy::ConsistencyPolicy pol = *policy::find_policy("AEC");
  pol.name = "AEC-noVQ";
  pol.lap_virtual_queue = false;
  aec::AecSuite suite(pol);
  PingPongApp app(6);
  dsm::RunConfig rc;
  rc.params = small_params(4);
  const RunStats stats = dsm::run_app(app, suite.suite(), rc);
  EXPECT_TRUE(stats.result_valid);
}

}  // namespace
}  // namespace aecdsm::test
