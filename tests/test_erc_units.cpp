// Behavioural tests of the Munin-style eager-release-consistency baseline:
// copyset growth, eager update fan-out with acknowledgements, the release
// stall, and the fetch/update race handling.
#include <gtest/gtest.h>

#include "dsm/shared_array.hpp"
#include "erc/protocol.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

RunStats run_erc(dsm::App& app, const SystemParams& params,
                 std::shared_ptr<const erc::ErcShared>* shared_out = nullptr) {
  erc::ErcSuite suite;
  dsm::RunConfig rc;
  rc.params = params;
  const RunStats stats = dsm::run_app(app, suite.suite(), rc);
  if (shared_out != nullptr) *shared_out = suite.shared_handle();
  return stats;
}

TEST(ErcProtocol, CopysetGrowsWithReaders) {
  dsm::SharedArray<std::uint32_t> arr;
  std::shared_ptr<const erc::ErcShared> shared;
  LambdaApp app(
      "copyset", 8192,
      [&](dsm::Machine& m) { arr = dsm::SharedArray<std::uint32_t>::alloc(m, 8); },
      [&](dsm::Context& ctx) {
        if (ctx.pid() == 0) arr.put(ctx, 0, 7);
        ctx.barrier();
        (void)arr.get(ctx, 0);  // everyone reads -> everyone joins
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(arr.get(ctx, 0) == 7);
      });
  const RunStats stats = run_erc(app, small_params(4), &shared);
  ASSERT_TRUE(stats.result_valid);
  // Page 0's copyset: all four processors cache it.
  EXPECT_EQ(shared->copyset[0].count(), 4);
  for (int p = 0; p < 4; ++p) EXPECT_TRUE(shared->copyset[0].test(p));
}

TEST(ErcProtocol, UpdatesReachAllCopiesEagerly) {
  // After a writer's barrier flush, a reader's *already-valid* copy has the
  // new values without any further faulting.
  dsm::SharedArray<std::uint32_t> arr;
  LambdaApp app(
      "eager", 8192,
      [&](dsm::Machine& m) { arr = dsm::SharedArray<std::uint32_t>::alloc(m, 32); },
      [&](dsm::Context& ctx) {
        (void)arr.get(ctx, 0);  // join the copyset up front
        ctx.barrier();
        for (int round = 0; round < 3; ++round) {
          if (ctx.pid() == 0) {
            for (std::size_t i = 0; i < 32; ++i) {
              arr.put(ctx, i, static_cast<std::uint32_t>(round * 100 + i));
            }
          }
          ctx.barrier();
          if (ctx.pid() == 1) {
            for (std::size_t i = 0; i < 32; ++i) {
              if (arr.get(ctx, i) != static_cast<std::uint32_t>(round * 100 + i)) {
                app.set_ok(false);
              }
            }
          }
          ctx.barrier();
        }
        if (ctx.pid() == 0) app.set_ok(true);
      });
  const RunStats stats = run_erc(app, small_params(2));
  ASSERT_TRUE(stats.result_valid);
  // The reader never faults on the page after its first join: the second
  // and third rounds arrive as pushed updates.
  EXPECT_LE(stats.faults.read_faults, 8u);
  EXPECT_GT(stats.diffs.diffs_applied, 0u);
}

TEST(ErcProtocol, ReleaseStallsUntilAcksArrive) {
  // Lock hand-off correctness depends on the ack stall: a chain of
  // increments through two processors must never lose an update.
  dsm::SharedArray<std::uint64_t> cell;
  LambdaApp app(
      "ackstall", 4096,
      [&](dsm::Machine& m) { cell = dsm::SharedArray<std::uint64_t>::alloc(m, 1); },
      [&](dsm::Context& ctx) {
        for (int i = 0; i < 8; ++i) {
          ctx.lock(0);
          cell.put(ctx, 0, cell.get(ctx, 0) + 1);
          ctx.unlock(0);
        }
        ctx.barrier();
        if (ctx.pid() == 0) {
          app.set_ok(cell.get(ctx, 0) ==
                     8u * static_cast<std::uint64_t>(ctx.nprocs()));
        }
      });
  const RunStats stats = run_erc(app, small_params(8));
  EXPECT_TRUE(stats.result_valid);
}

TEST(ErcProtocol, NoHiddenDiffWork) {
  // Eager RC exposes all diff creation at releases/barriers.
  dsm::SharedArray<std::uint64_t> cell;
  LambdaApp app(
      "exposed", 4096,
      [&](dsm::Machine& m) { cell = dsm::SharedArray<std::uint64_t>::alloc(m, 1); },
      [&](dsm::Context& ctx) {
        ctx.lock(0);
        cell.put(ctx, 0, cell.get(ctx, 0) + 1);
        ctx.unlock(0);
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(cell.get(ctx, 0) == 4);
      });
  const RunStats stats = run_erc(app, small_params(4));
  ASSERT_TRUE(stats.result_valid);
  EXPECT_EQ(stats.diffs.create_hidden_cycles, 0u);
  EXPECT_GT(stats.diffs.create_cycles, 0u);
}

TEST(ErcProtocol, ScoringLapMatchesEventCounts) {
  dsm::SharedArray<std::uint64_t> cell;
  std::shared_ptr<const erc::ErcShared> shared;
  LambdaApp app(
      "lapscores", 4096,
      [&](dsm::Machine& m) { cell = dsm::SharedArray<std::uint64_t>::alloc(m, 1); },
      [&](dsm::Context& ctx) {
        for (int i = 0; i < 5; ++i) {
          ctx.lock_acquire_notice(2);
          ctx.lock(2);
          cell.put(ctx, 0, cell.get(ctx, 0) + 1);
          ctx.unlock(2);
        }
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(cell.get(ctx, 0) == 20);
      });
  const RunStats stats = run_erc(app, small_params(4), &shared);
  ASSERT_TRUE(stats.result_valid);
  // Lock 2's manager (2 % 4) owns its record and LAP instance.
  const auto it = shared->locks.shards[2].find(2);
  ASSERT_NE(it, shared->locks.shards[2].end());
  EXPECT_EQ(it->second.lap.scores().acquire_events, 20u);
  EXPECT_GT(it->second.lap.scores().lap.rate(), 0.5);
}

TEST(ErcProtocol, MoreTrafficThanAecOnSharedData) {
  // The paper's §6 claim, at unit-test scale: ERC's update-everyone pushes
  // move more bytes than AEC's update-set pushes once several processors
  // cache the page.
  auto make_app = [](dsm::SharedArray<std::uint64_t>& arr, LambdaApp*& out) {
    out = new LambdaApp(
        "traffic", 8192,
        [&arr](dsm::Machine& m) { arr = dsm::SharedArray<std::uint64_t>::alloc(m, 16); },
        [&arr, &out](dsm::Context& ctx) {
          (void)arr.get(ctx, 0);  // everyone joins the copyset
          ctx.barrier();
          for (int i = 0; i < 6; ++i) {
            ctx.lock(0);
            arr.put(ctx, 0, arr.get(ctx, 0) + 1);
            ctx.unlock(0);
          }
          ctx.barrier();
          if (ctx.pid() == 0) out->set_ok(arr.get(ctx, 0) == 48);
        });
  };
  dsm::SharedArray<std::uint64_t> arr1, arr2;
  LambdaApp* erc_app = nullptr;
  LambdaApp* aec_app = nullptr;
  make_app(arr1, erc_app);
  make_app(arr2, aec_app);
  const RunStats erc_stats = run_protocol(*erc_app, "Munin-ERC", small_params(8));
  const RunStats aec_stats = run_protocol(*aec_app, "AEC", small_params(8));
  ASSERT_TRUE(erc_stats.result_valid);
  ASSERT_TRUE(aec_stats.result_valid);
  EXPECT_GT(erc_stats.msgs.messages, aec_stats.msgs.messages);
  delete erc_app;
  delete aec_app;
}

}  // namespace
}  // namespace aecdsm::test
