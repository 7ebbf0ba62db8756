// The simulator must be exactly reproducible: identical configuration gives
// identical cycle counts, statistics and message traffic across runs — for
// every protocol and application.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "harness/batch.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"
#include "policy/policy.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

struct DetCase {
  const char* app;
  const char* protocol;
};

class Determinism : public ::testing::TestWithParam<DetCase> {};

TEST_P(Determinism, RepeatedRunsAreCycleIdentical) {
  const DetCase& c = GetParam();
  auto run_once = [&] {
    auto app = apps::make_app(c.app, apps::Scale::kSmall);
    return run_protocol(*app, c.protocol, small_params(4));
  };
  const RunStats a = run_once();
  const RunStats b = run_once();
  ASSERT_TRUE(a.result_valid);
  ASSERT_TRUE(b.result_valid);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.msgs.messages, b.msgs.messages);
  EXPECT_EQ(a.msgs.bytes, b.msgs.bytes);
  EXPECT_EQ(a.faults.fault_cycles, b.faults.fault_cycles);
  EXPECT_EQ(a.diffs.create_cycles, b.diffs.create_cycles);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t p = 0; p < a.per_proc.size(); ++p) {
    EXPECT_EQ(a.per_proc[p].busy, b.per_proc[p].busy) << "proc " << p;
    EXPECT_EQ(a.per_proc[p].synch, b.per_proc[p].synch) << "proc " << p;
    EXPECT_EQ(a.per_proc[p].data, b.per_proc[p].data) << "proc " << p;
    EXPECT_EQ(a.per_proc[p].ipc, b.per_proc[p].ipc) << "proc " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, Determinism,
    ::testing::Values(DetCase{"IS", "AEC"}, DetCase{"IS", "TreadMarks"},
                      DetCase{"Water-ns", "AEC"}, DetCase{"Ocean", "TreadMarks"},
                      DetCase{"Raytrace", "AEC"}, DetCase{"Water-sp", "AEC-noLAP"}),
    [](const ::testing::TestParamInfo<DetCase>& info) {
      std::string s = std::string(info.param.app) + "_" + info.param.protocol;
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

TEST(Determinism, BatchRunnerMatchesSerialRunByteForByte) {
  // The same (protocol, app, seed) cell run serially and through the batch
  // runner with 4 workers must produce byte-identical RunStats — compared
  // via the full JSON serialization, which covers every field including the
  // per-processor breakdowns.
  const SystemParams params = small_params(4);
  const auto serial =
      harness::run_experiment("AEC", "IS", apps::Scale::kSmall, params, 7);
  const std::string want = harness::to_json(serial.stats).dump();

  harness::ExperimentPlan plan;
  plan.name = "det_batch";
  // Four copies of the same cell plus other protocols in flight, so the
  // workers genuinely run simulations concurrently.
  for (int i = 0; i < 4; ++i) plan.add("AEC", "IS", apps::Scale::kSmall, params, 7);
  plan.add("TreadMarks", "IS", apps::Scale::kSmall, params, 7);
  plan.add("Munin-ERC", "IS", apps::Scale::kSmall, params, 7);

  harness::BatchOptions opts;
  opts.jobs = 4;
  opts.no_cache = true;  // every copy must genuinely simulate
  harness::BatchRunner runner(opts);
  const auto results = runner.run(plan);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(harness::to_json(results[static_cast<std::size_t>(i)].stats).dump(),
              want)
        << "batch copy " << i;
  }
}

// ------------------------------------------------- preset x app golden

// Pinned FNV-1a hashes of the full result fingerprint of every registered
// policy preset on every registered application, fault-free, 8 nodes, seed
// 42, plus one 4-node cell. Repeating a run within one build (above) cannot
// catch a refactor that shifts the event order of the next build; these
// pins can, for the fault-free paths that the fault-plane and lock-manager
// goldens (test_lock_strategies.cpp) leave out. Change an entry only for a
// deliberate change of simulated behaviour, named with the cause.
struct AppCase {
  std::string preset;
  std::string app;
  int nprocs = 8;
  std::uint64_t fnv = 0;
};

class PresetAppGolden : public ::testing::TestWithParam<AppCase> {};

TEST_P(PresetAppGolden, FingerprintMatchesPinnedHash) {
  const AppCase& c = GetParam();
  const auto r = harness::run_experiment(c.preset, c.app, apps::Scale::kSmall,
                                         small_params(c.nprocs), 42);
  ASSERT_TRUE(r.stats.result_valid);
  const std::uint64_t got = fnv1a64(result_fingerprint(r));
  EXPECT_EQ(got, c.fnv) << "actual 0x" << std::hex << got;
}

std::vector<AppCase> app_cases() {
  return {
      {"AEC", "IS", 8, 0x86fefe35a7b66ed5ull},
      {"AEC", "Raytrace", 8, 0xa92babcfb316eeb5ull},
      {"AEC", "Water-ns", 8, 0xdd34197e18f2ac25ull},
      {"AEC", "FFT", 8, 0x5cd0432dc9e9393bull},
      {"AEC", "Ocean", 8, 0xededd5a6bc1ab993ull},
      {"AEC", "Water-sp", 8, 0xa4456f15dd306047ull},
      {"AEC-noLAP", "IS", 8, 0x510d533466d17fc2ull},
      {"AEC-noLAP", "Raytrace", 8, 0xfa06cab9ad4e2995ull},
      {"AEC-noLAP", "Water-ns", 8, 0x2ffab99f4eccbb05ull},
      {"AEC-noLAP", "FFT", 8, 0x89ab7efffb38fa61ull},
      {"AEC-noLAP", "Ocean", 8, 0xfd98bac115ef2a7aull},
      {"AEC-noLAP", "Water-sp", 8, 0x083eef6c560655e8ull},
      {"AEC-TmkBarrier", "IS", 8, 0x35a5a6d166665188ull},
      {"AEC-TmkBarrier", "Raytrace", 8, 0xf84d4a288124a090ull},
      {"AEC-TmkBarrier", "Water-ns", 8, 0x25decaf5425f11d8ull},
      {"AEC-TmkBarrier", "FFT", 8, 0x5daffcae0c3f7b3full},
      {"AEC-TmkBarrier", "Ocean", 8, 0x87527935e5dd057dull},
      {"AEC-TmkBarrier", "Water-sp", 8, 0x7c0d5af8495705c5ull},
      {"TreadMarks", "IS", 8, 0xc3667f9e443d3ccfull},
      {"TreadMarks", "Raytrace", 8, 0xc9220e05ebd0e992ull},
      {"TreadMarks", "Water-ns", 8, 0x76fd5f3ec3d11591ull},
      {"TreadMarks", "FFT", 8, 0xad881853780f8d48ull},
      {"TreadMarks", "Ocean", 8, 0x639a63d3f984b6bfull},
      {"TreadMarks", "Water-sp", 8, 0xbb9262d8eb3d680full},
      {"Munin-ERC", "IS", 8, 0x4154212167e506f1ull},
      {"Munin-ERC", "Raytrace", 8, 0xf13c69032c7d66c6ull},
      {"Munin-ERC", "Water-ns", 8, 0x5ad18e4852bf2e60ull},
      {"Munin-ERC", "FFT", 8, 0xcc52a49c18273723ull},
      {"Munin-ERC", "Ocean", 8, 0x074f6632d550acdaull},
      {"Munin-ERC", "Water-sp", 8, 0x282326752bc697e8ull},
      {"AEC", "IS", 4, 0x12eba1329e03766bull},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PresetAppGolden, ::testing::ValuesIn(app_cases()),
    [](const ::testing::TestParamInfo<AppCase>& info) {
      const AppCase& c = info.param;
      std::string s = c.preset + "_" + c.app;
      if (c.nprocs != 8) s += "_" + std::to_string(c.nprocs) + "nodes";
      for (char& ch : s) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return s;
    });

// Every registered preset x app pair has an 8-node pin: a preset or app
// added later must add its entries, or its fault-free path goes unpinned.
TEST(PresetAppGoldenCoverage, EveryPresetAppPairIsPinned) {
  std::set<std::pair<std::string, std::string>> pinned;
  for (const AppCase& c : app_cases()) {
    if (c.nprocs == 8) pinned.insert({c.preset, c.app});
  }
  for (const std::string& preset : policy::registered_names()) {
    for (const std::string& app : apps::app_names()) {
      EXPECT_EQ(pinned.count({preset, app}), 1u)
          << preset << "/" << app << " has no pin";
    }
  }
}

// The engine's event count feeds batch telemetry (events/s) but is not part
// of the result fingerprint, so it is pinned on its own. A deliberate change
// of how many events a run schedules updates this entry.
TEST(EngineEventsGolden, TreadMarksIsEventCountIsPinned) {
  const auto r = harness::run_experiment("TreadMarks", "IS", apps::Scale::kSmall,
                                         small_params(8), 42);
  EXPECT_EQ(r.stats.engine_events, 5887u);
}

TEST(Rng, DeterministicAndSplittable) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(42);
  Rng s1 = c.split(1);
  Rng c2(42);
  Rng s1b = c2.split(1);
  EXPECT_EQ(s1.next_u64(), s1b.next_u64());
  // Different salts give different streams.
  Rng c3(42);
  Rng s2 = c3.split(2);
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(r.next_below(0), SimError);
}

TEST(Stats, BreakdownArithmetic) {
  TimeBreakdown a;
  a.busy = 10;
  a.data = 5;
  a.others_tlb = 2;
  a.others_cache = 3;
  TimeBreakdown b;
  b.busy = 1;
  b.ipc = 4;
  a += b;
  EXPECT_EQ(a.busy, 11u);
  EXPECT_EQ(a.ipc, 4u);
  EXPECT_EQ(a.others(), 5u);
  EXPECT_EQ(a.total(), 11u + 5u + 4u + 5u);
}

TEST(Stats, RunStatsAggregation) {
  RunStats s;
  s.per_proc.resize(2);
  s.per_proc[0].busy = 7;
  s.per_proc[1].synch = 3;
  const TimeBreakdown agg = s.aggregate();
  EXPECT_EQ(agg.busy, 7u);
  EXPECT_EQ(agg.synch, 3u);
  EXPECT_EQ(agg.total(), 10u);
}

TEST(Stats, SyncStatsDistinctLocksKeepMax) {
  SyncStats a, b;
  a.distinct_locks = 3;
  a.lock_acquires = 10;
  b.distinct_locks = 5;
  b.lock_acquires = 7;
  a += b;
  EXPECT_EQ(a.distinct_locks, 5u);
  EXPECT_EQ(a.lock_acquires, 17u);
}

}  // namespace
}  // namespace aecdsm::test
