// Fail-stop crash / recovery fault plane: lock-manager failover, custody
// re-election and crashed-node resume, end to end on tiny SPMD programs.
//
// The schedule pattern used throughout: run the program once crash-free to
// learn its deterministic finish time F, then re-run with a crash window
// anchored at a fraction of F so the window reliably lands mid-contention
// regardless of protocol or machine-parameter drift. The RTO is pinned low
// so retransmit exhaustion (the suspect verdict) fits inside the window.
#include <gtest/gtest.h>

#include <string>

#include "dsm/shared_array.hpp"
#include "harness/json_out.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

/// All five registered presets: the failover chain has a flavour per lock
/// family (AEC chain custody, TreadMarks hint hand-off, ERC FIFO manager).
const char* kAllPresets[] = {"AEC", "AEC-noLAP", "AEC-TmkBarrier",
                             "TreadMarks", "Munin-ERC"};

/// Contended-counter program: every pid loops `iters` times over lock 1
/// (manager = node 1 on a 4-node machine), so crashing node 1 mid-run takes
/// down a lock manager with requests pending. Returns a fresh app; `ok`
/// checks the oracle on pid 0 — the crashed node's increments must survive
/// its reboot, or the count comes up short.
class CounterProgram {
 public:
  explicit CounterProgram(int iters) : iters_(iters) {}

  RunStats run(const std::string& preset, const SystemParams& params) {
    dsm::SharedArray<std::uint32_t> counter;
    LambdaApp app(
        "crash_counter", 4096,
        [&](dsm::Machine& m) {
          counter = dsm::SharedArray<std::uint32_t>::alloc(m, 1);
        },
        [&](dsm::Context& ctx) {
          for (int i = 0; i < iters_; ++i) {
            ctx.lock(1);
            counter.put(ctx, 0, counter.get(ctx, 0) + 1);
            ctx.unlock(1);
            ctx.compute(5000);
          }
          ctx.barrier();
          if (ctx.pid() == 0) {
            app.set_ok(counter.get(ctx, 0) ==
                       static_cast<std::uint32_t>(iters_ * ctx.nprocs()));
          }
        });
    return run_protocol(app, preset, params);
  }

 private:
  int iters_;
};

SystemParams crash_params(Cycles finish_time_crash_free) {
  SystemParams p = small_params(4);
  // Suspect quickly: 3 exhausted retransmits at a 5k RTO raise the verdict
  // ~35k cycles into the window, far inside the F/2-cycle outage.
  p.faults.retransmit_timeout_cycles = 5000;
  p.faults.crashes.push_back({/*node=*/1,
                              /*at_cycle=*/finish_time_crash_free / 4,
                              /*cycles=*/finish_time_crash_free / 2});
  return p;
}

class CrashRecovery : public ::testing::TestWithParam<const char*> {};

// Manager crash mid-contention: node 1 manages lock 1 and is also mid-grant
// traffic when it dies. A surviving node must be re-elected, pending
// requests replayed, and — after the window — node 1's own increments must
// land (warm reboot resumes from the last sync point).
TEST_P(CrashRecovery, ManagerCrashFailsOverAndCrashedWorkResumes) {
  CounterProgram prog(/*iters=*/20);
  const RunStats base = prog.run(GetParam(), small_params(4));
  ASSERT_TRUE(base.result_valid);
  ASSERT_GT(base.finish_time, 200000u) << "program too short to crash into";

  const RunStats crashed = prog.run(GetParam(), crash_params(base.finish_time));
  EXPECT_TRUE(crashed.result_valid)
      << GetParam() << ": updates lost through the failover";
  EXPECT_GE(crashed.recovery.suspects, 1u) << GetParam();
  EXPECT_GE(crashed.recovery.failovers, 1u) << GetParam();
  EXPECT_GE(crashed.recovery.reelections, 1u) << GetParam();
  EXPECT_GT(crashed.recovery.recovery_cycles, 0u) << GetParam();
  EXPECT_GT(crashed.finish_time, base.finish_time)
      << GetParam() << ": a mid-run outage cannot be free";
}

// Crash spanning barriers: the run stalls on the crashed participant and
// completes after its recovery (node 0 hosts the barrier manager and never
// crashes, so the gather state itself survives).
TEST_P(CrashRecovery, CrashDuringBarrierStallsUntilRecovery) {
  auto run = [&](const SystemParams& p) {
    dsm::SharedArray<std::uint32_t> data;
    LambdaApp app(
        "crash_barrier", 4096,
        [&](dsm::Machine& m) {
          data = dsm::SharedArray<std::uint32_t>::alloc(m, 4);
        },
        [&](dsm::Context& ctx) {
          for (int step = 0; step < 8; ++step) {
            data.put(ctx, static_cast<std::size_t>(ctx.pid()),
                     static_cast<std::uint32_t>(step));
            ctx.compute(20000);
            ctx.barrier();
          }
          if (ctx.pid() == 0) {
            bool good = true;
            for (int q = 0; q < ctx.nprocs(); ++q) {
              if (data.get(ctx, static_cast<std::size_t>(q)) != 7u) good = false;
            }
            app.set_ok(good);
          }
        });
    return run_protocol(app, GetParam(), p);
  };
  const RunStats base = run(small_params(4));
  ASSERT_TRUE(base.result_valid);

  SystemParams p = small_params(4);
  p.faults.retransmit_timeout_cycles = 5000;
  p.faults.crashes.push_back({/*node=*/2, /*at_cycle=*/base.finish_time / 3,
                              /*cycles=*/base.finish_time / 3});
  const RunStats crashed = run(p);
  EXPECT_TRUE(crashed.result_valid)
      << GetParam() << ": barrier data wrong after mid-barrier crash";
  EXPECT_GT(crashed.finish_time, base.finish_time) << GetParam();
  EXPECT_TRUE(crashed.recovery.any())
      << GetParam() << ": the window never touched the run";
}

INSTANTIATE_TEST_SUITE_P(Presets, CrashRecovery,
                         ::testing::ValuesIn(kAllPresets),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string s = info.param;
                           for (char& ch : s) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return s;
                         });

// LAP push-target crash (AEC only): the predictor pushes update sets to the
// predicted next acquirer; while that node's NIC is down the best-effort
// pushes are refused (crash_drops) and the acquirer falls back to the lazy
// §3.4 fetch after recovery — updates delayed, never lost.
TEST(CrashRecoveryAec, LapPushTargetCrashFallsBackLazily) {
  CounterProgram prog(/*iters=*/20);
  const RunStats base = prog.run("AEC", small_params(4));
  ASSERT_TRUE(base.result_valid);

  // Crash node 2 — with round-robin contention on lock 1 the LAP predicts
  // node 2 regularly, so pushes land on a dead NIC inside the window.
  SystemParams p = small_params(4);
  p.faults.retransmit_timeout_cycles = 5000;
  p.faults.crashes.push_back({/*node=*/2, /*at_cycle=*/base.finish_time / 4,
                              /*cycles=*/base.finish_time / 2});
  const RunStats crashed = prog.run("AEC", p);
  EXPECT_TRUE(crashed.result_valid) << "updates lost at the crashed target";
  EXPECT_GT(crashed.recovery.crash_drops, 0u)
      << "no traffic ever hit the crashed NIC";
}

// Nested locks under a manager crash (Munin-ERC). Request serials are
// minted per (node, lock), so the outer and inner acquires of one nested
// iteration carry the same serial. A duplicate grant of the outer lock —
// the crashed manager's original racing its successor's rebuild — must not
// be taken for the inner lock's grant: the node would then enter the inner
// critical section while another node owns it. Even pids nest lock 2
// inside lock 1 (manager = the crashed node 1); odd pids contend for lock 2
// alone, so a false inner grant loses their updates.
TEST(CrashRecoveryErc, NestedLocksTakeOnlyTheirOwnGrant) {
  constexpr int kIters = 20;
  auto run = [&](const SystemParams& params) {
    dsm::SharedArray<std::uint32_t> counters;
    LambdaApp app(
        "crash_nested", 4096,
        [&](dsm::Machine& m) {
          counters = dsm::SharedArray<std::uint32_t>::alloc(m, 2);
        },
        [&](dsm::Context& ctx) {
          const bool nest = ctx.pid() % 2 == 0;
          for (int i = 0; i < kIters; ++i) {
            if (nest) {
              ctx.lock(1);
              counters.put(ctx, 0, counters.get(ctx, 0) + 1);
            }
            ctx.lock(2);
            counters.put(ctx, 1, counters.get(ctx, 1) + 1);
            ctx.unlock(2);
            if (nest) ctx.unlock(1);
            ctx.compute(5000);
          }
          ctx.barrier();
          if (ctx.pid() == 0) {
            const auto n = static_cast<std::uint32_t>(kIters * ctx.nprocs());
            app.set_ok(counters.get(ctx, 0) == n / 2 && counters.get(ctx, 1) == n);
          }
        });
    return run_protocol(app, "Munin-ERC", params);
  };
  const RunStats base = run(small_params(4));
  ASSERT_TRUE(base.result_valid);
  // Node 1 (manager of lock 1) down for the eighth of the run from 3/8:
  // the window where the pre-fix requester took the outer lock's rebuilt
  // grant for the inner one and released a lock it never owned.
  SystemParams p = small_params(4);
  p.faults.retransmit_timeout_cycles = 5000;
  p.faults.crashes.push_back({/*node=*/1, /*at_cycle=*/base.finish_time * 3 / 8,
                              /*cycles=*/base.finish_time / 8});
  const RunStats crashed = run(p);
  EXPECT_TRUE(crashed.result_valid)
      << "nested critical sections lost updates through the failover";
  EXPECT_GE(crashed.recovery.failovers, 1u);
}

// Multiple crash windows on distinct nodes in one run.
TEST(CrashRecoveryMulti, TwoCrashesSameRun) {
  CounterProgram prog(/*iters=*/30);
  const RunStats base = prog.run("AEC", small_params(4));
  ASSERT_TRUE(base.result_valid);

  SystemParams p = small_params(4);
  p.faults.retransmit_timeout_cycles = 5000;
  p.faults.crashes.push_back({/*node=*/1, /*at_cycle=*/base.finish_time / 5,
                              /*cycles=*/base.finish_time / 4});
  p.faults.crashes.push_back({/*node=*/3, /*at_cycle=*/base.finish_time,
                              /*cycles=*/base.finish_time / 4});
  const RunStats crashed = prog.run("AEC", p);
  EXPECT_TRUE(crashed.result_valid);
  EXPECT_GE(crashed.recovery.suspects, 1u);
  EXPECT_TRUE(crashed.recovery.any());
}

// Zero-crash configs must keep the pre-crash-plane artifact bytes: no
// "recovery" member, identical fingerprint with and without the (empty)
// crash vector present in the params struct.
TEST(CrashRecoveryStats, OmittedWhenEmptyAndRoundTrips) {
  RunStats clean;
  clean.protocol = "AEC";
  clean.app = "x";
  clean.num_procs = 1;
  clean.per_proc.resize(1);
  EXPECT_EQ(harness::to_json(clean).find("recovery"), nullptr);

  RunStats r = clean;
  r.recovery.crash_drops = 3;
  r.recovery.suspects = 2;
  r.recovery.failovers = 1;
  r.recovery.reelections = 1;
  r.recovery.requeued_requests = 4;
  r.recovery.recovery_cycles = 12345;
  const json::Value v = harness::to_json(r);
  ASSERT_NE(v.find("recovery"), nullptr);
  const RunStats back = harness::run_stats_from_json(v);
  EXPECT_EQ(harness::to_json(back).dump(), v.dump());
}

}  // namespace
}  // namespace aecdsm::test
