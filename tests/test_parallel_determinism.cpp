// The parallel engine's whole contract is byte-identity: a run with
// --engine-threads N must be indistinguishable from the sequential engine in
// every artifact — RunStats to the last field, LAP scores, event counts.
// This suite sweeps sequential vs {2, 4, 8} worker threads across every
// registered policy preset, every registered app, and fault-plane
// configurations exercising both transport paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"
#include "policy/policy.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

constexpr int kThreadSweep[] = {2, 4, 8};

void expect_parallel_matches_sequential(const std::string& protocol,
                                        const std::string& app,
                                        const SystemParams& params,
                                        std::uint64_t seed) {
  const auto seq = harness::run_experiment(protocol, app, apps::Scale::kSmall,
                                           params, seed);
  const std::string want = result_fingerprint(seq);
  for (int threads : kThreadSweep) {
    const auto par = harness::run_experiment(protocol, app, apps::Scale::kSmall,
                                             params, seed,
                                             /*wall_timeout_sec=*/0.0,
                                             /*recorder=*/nullptr, threads);
    EXPECT_EQ(result_fingerprint(par), want)
        << protocol << "/" << app << " with " << threads << " engine threads";
  }
}

struct Cell {
  std::string protocol;
  std::string app;
};

class ParallelDeterminism : public ::testing::TestWithParam<Cell> {};

TEST_P(ParallelDeterminism, ThreadsProduceByteIdenticalArtifacts) {
  const Cell& c = GetParam();
  expect_parallel_matches_sequential(c.protocol, c.app, small_params(8), 42);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const std::string& pol : policy::registered_names()) {
    for (const std::string& app : apps::app_names()) {
      cells.push_back(Cell{pol, app});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelDeterminism, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string s = info.param.protocol + "_" + info.param.app;
      for (char& ch : s) {
        if (!(std::isalnum(static_cast<unsigned char>(ch)))) ch = '_';
      }
      return s;
    });

// Fault planes drive the reliable transport (retransmission timers, acks,
// duplicate suppression, the pause window) — a completely different event
// mix from the fault-free fast path, and the part of the simulator with the
// most same-time event ties.
TEST(ParallelDeterminismFaults, DropAndDuplicate) {
  SystemParams p = small_params(8);
  p.faults.drop_rate = 0.05;
  p.faults.dup_rate = 0.05;
  expect_parallel_matches_sequential("AEC", "IS", p, 42);
  expect_parallel_matches_sequential("TreadMarks", "Ocean", p, 42);
}

TEST(ParallelDeterminismFaults, DelayReorderAndPause) {
  SystemParams p = small_params(8);
  p.faults.delay_rate = 0.1;
  p.faults.reorder_rate = 0.05;
  p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/50000, /*cycles=*/20000});
  expect_parallel_matches_sequential("AEC", "Water-ns", p, 42);
  expect_parallel_matches_sequential("Munin-ERC", "IS", p, 42);
}

TEST(ParallelDeterminismFaults, MultiplePauseWindows) {
  SystemParams p = small_params(8);
  p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/50000, /*cycles=*/20000});
  p.faults.pauses.push_back({/*node=*/3, /*at_cycle=*/90000, /*cycles=*/30000});
  expect_parallel_matches_sequential("AEC", "IS", p, 42);
}

// Fail-stop crash + failover is the newest and most tie-heavy event mix:
// NIC drops, deferred retransmit timers, suspect verdicts, exclusive
// failover/re-election events, and request replay all have to land
// byte-identically under every worker count. Water-ns spreads 65 locks
// over all 8 manager nodes, so a mid-run crash of node 3 takes down live
// lock managers with requests pending in every preset.
class ParallelDeterminismCrash
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminismCrash, CrashRunsAreByteIdenticalAcrossThreads) {
  SystemParams p = small_params(8);
  p.faults.crashes.push_back(
      {/*node=*/3, /*at_cycle=*/200000, /*cycles=*/400000});
  p.faults.crashes.push_back(
      {/*node=*/5, /*at_cycle=*/900000, /*cycles=*/300000});
  expect_parallel_matches_sequential(GetParam(), "Water-ns", p, 42);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ParallelDeterminismCrash,
    ::testing::ValuesIn(policy::registered_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      for (char& ch : s) {
        if (!(std::isalnum(static_cast<unsigned char>(ch)))) ch = '_';
      }
      return s;
    });

// Different seeds shift every event time; the lookahead argument must hold
// for all of them, not just the default.
TEST(ParallelDeterminismSeeds, SeedSweep) {
  for (std::uint64_t seed : {7u, 1234u}) {
    expect_parallel_matches_sequential("AEC", "Raytrace", small_params(8), seed);
  }
}

// More threads than nodes must clamp, not break.
TEST(ParallelDeterminismShape, MoreThreadsThanNodes) {
  const SystemParams p = small_params(4);
  const auto seq =
      harness::run_experiment("AEC", "IS", apps::Scale::kSmall, p, 42);
  const auto par =
      harness::run_experiment("AEC", "IS", apps::Scale::kSmall, p, 42, 0.0,
                              nullptr, /*engine_threads=*/16);
  EXPECT_EQ(result_fingerprint(par), result_fingerprint(seq));
}

// The parallel engine replays the sequential seq numbering, so the events
// processed counter — which feeds batch telemetry — must agree exactly.
TEST(ParallelDeterminismShape, EventCountMatchesSequential) {
  const SystemParams p = small_params(8);
  const auto seq =
      harness::run_experiment("TreadMarks", "IS", apps::Scale::kSmall, p, 42);
  const auto par = harness::run_experiment("TreadMarks", "IS",
                                           apps::Scale::kSmall, p, 42, 0.0,
                                           nullptr, 4);
  EXPECT_EQ(seq.stats.engine_events, par.stats.engine_events);
}

}  // namespace
}  // namespace aecdsm::test
