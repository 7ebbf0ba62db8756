// End-to-end suite for the non-default lock-manager strategies (src/locks,
// DESIGN.md §13): mcs and hier must preserve every correctness contract the
// central manager satisfies — synthetic-corpus oracles under every policy
// preset, the paper applications, and lock-manager failover under
// fail-stop crashes — while exhibiting the behaviors they exist for: direct
// releaser->successor handoffs (mcs, with throughput matching the Aksenov
// closed-form model) and reduced cross-quadrant handoffs on large meshes
// (hier).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "dsm/shared_array.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"
#include "locks/model.hpp"
#include "policy/policy.hpp"
#include "tests/test_util.hpp"

namespace aecdsm::test {
namespace {

SystemParams strategy_params(int nprocs, const std::string& strategy) {
  SystemParams p = small_params(nprocs);
  p.locks.strategy = strategy;
  return p;
}

// ------------------------------------------------- corpus x preset conformance

/// The same spec corpus the workload conformance suite pins for `central`
/// (one spec per sharing pattern plus a long-CS stress spelling).
std::vector<std::string> corpus() {
  return {
      "syn:migratory/cs32/fan4/seed7",
      "syn:producer-consumer/fan4/seed3",
      "syn:read-mostly/fan4/cells96/seed13",
      "syn:hotspot/cs64/fan8/seed17",
      "syn:mixed/fan6/seed23",
      "syn:read-mostly/cs512/fan1/seed31",
  };
}

struct StrategyCase {
  std::string spec;
  std::string policy;
  std::string strategy;
};

class StrategyConformance : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyConformance, OracleHolds) {
  const auto& [spec, policy, strategy] = GetParam();
  const SystemParams params = strategy_params(4, strategy);
  const auto r = harness::run_experiment(policy, spec, apps::Scale::kSmall,
                                         params, /*seed=*/7);
  ASSERT_TRUE(r.stats.result_valid)
      << spec << " under " << policy << "/" << strategy;
  // The strategy machinery lives in the AEC and ERC lock managers;
  // TreadMarks uses its own distributed-owner locks and ignores the knob.
  if (policy != "TreadMarks") {
    EXPECT_GT(r.stats.lockmgr.grants, 0u);
  }
}

std::vector<StrategyCase> conformance_cases() {
  std::vector<StrategyCase> cases;
  for (const std::string& spec : corpus()) {
    for (const std::string& pol : policy::registered_names()) {
      for (const char* strat : {"mcs", "hier"}) {
        cases.push_back(StrategyCase{spec, pol, strat});
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<StrategyCase>& info) {
  const auto& spec = info.param.spec;
  std::string s = spec.substr(spec.find(':') + 1) + "_" + info.param.policy +
                  "_" + info.param.strategy;
  for (char& ch : s) {
    if (ch == '/' || ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, StrategyConformance,
                         ::testing::ValuesIn(conformance_cases()), case_name);

// ------------------------------------------------------------------ paper apps

class StrategyPaperApps : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyPaperApps, AllSixApplicationsStayOracleValid) {
  const SystemParams params = strategy_params(16, GetParam());
  for (const std::string& app : apps::app_names()) {
    const auto r = harness::run_experiment("AEC", app, apps::Scale::kSmall,
                                           params, /*seed=*/42);
    EXPECT_TRUE(r.stats.result_valid) << app << " under " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyPaperApps,
                         ::testing::Values("mcs", "hier"));

// ---------------------------------------------------------------- mcs behavior

TEST(McsStrategy, HotLockHandsOffDirectlyWithoutTheManager) {
  const auto central = harness::run_experiment(
      "AEC", "syn:hotspot/cs64/fan2/seed17", apps::Scale::kSmall,
      [] {
        SystemParams p = small_params(16);
        p.locks.collect_stats = true;
        return p;
      }(),
      7);
  const auto mcs = harness::run_experiment("AEC", "syn:hotspot/cs64/fan2/seed17",
                                           apps::Scale::kSmall,
                                           strategy_params(16, "mcs"), 7);
  ASSERT_TRUE(central.stats.result_valid);
  ASSERT_TRUE(mcs.stats.result_valid);
  // Same lock schedule, same number of grants — mcs only changes transport.
  EXPECT_EQ(mcs.stats.lockmgr.grants, central.stats.lockmgr.grants);
  EXPECT_EQ(central.stats.lockmgr.direct_handoffs, 0u);
  EXPECT_GT(mcs.stats.lockmgr.direct_handoffs, 0u);
  EXPECT_GT(mcs.stats.lockmgr.link_messages, 0u);
  // Direct handoffs bypass the REL+GRANT pair through the manager: most
  // contended transfers must take the short path.
  EXPECT_GT(mcs.stats.lockmgr.direct_handoffs,
            mcs.stats.lockmgr.handoffs / 2);
}

TEST(McsStrategy, ThroughputOfASaturatedLockMatchesTheAksenovModel) {
  // Pure synchronization loop: no shared data, so a release carries an
  // empty page list and the critical path of one lock tenure is exactly
  // cs_cycles + one direct-handoff latency — the regime the closed-form
  // 1 / (C + H) models.
  constexpr Cycles kCs = 2000;
  constexpr int kIters = 40;
  const SystemParams params = strategy_params(16, "mcs");
  LambdaApp app(
      "mcs_saturated", 4096, [](dsm::Machine&) {},
      [&](dsm::Context& ctx) {
        for (int i = 0; i < kIters; ++i) {
          ctx.lock(0);
          ctx.compute(kCs);
          ctx.unlock(0);
        }
        ctx.barrier();
        if (ctx.pid() == 0) app.set_ok(true);
      });
  const RunStats stats = run_protocol(app, "AEC", params);
  ASSERT_TRUE(stats.result_valid);
  const LockMgrStats& lm = stats.lockmgr;
  ASSERT_EQ(lm.grants, 16u * kIters);
  ASSERT_GT(lm.handoffs, 0u);
  // H: the 64-byte handoff message (kCtl + grant delta, empty page list)
  // over the measured mean handoff distance, with the empty-list grant
  // service (list_processing_per_elem * 4) — plus one extra interrupt: AEC
  // LAP-pushes the (empty) chain diff to the predicted next owner at
  // release, and that service occupies the successor's handler context
  // right before the grant arrives, serializing ahead of it.
  const double avg_hops = static_cast<double>(lm.handoff_hops) /
                          static_cast<double>(lm.handoffs);
  const Cycles handoff = locks::mcs_handoff_cycles(
                             params, /*bytes=*/64,
                             static_cast<int>(std::lround(avg_hops)),
                             params.list_processing_per_elem * 4) +
                         params.interrupt_cycles;
  const double predicted =
      locks::mcs_predicted_throughput(static_cast<double>(kCs),
                                      static_cast<double>(handoff));
  const double simulated = static_cast<double>(lm.grants) /
                           static_cast<double>(stats.finish_time);
  // The model ignores the post-grant wake-up tail and the few uncontended
  // startup grants; they are worth ~2% here. Hold the agreement to 15%.
  EXPECT_NEAR(simulated / predicted, 1.0, 0.15)
      << "simulated " << simulated << " acq/cycle vs predicted " << predicted
      << " (avg hops " << avg_hops << ", H " << handoff << ", direct "
      << lm.direct_handoffs << "/" << lm.handoffs << ", fallback "
      << lm.fallback_rels << ", link " << lm.link_messages << ")";
}

// --------------------------------------------------------------- hier behavior

TEST(HierStrategy, CutsCrossQuadrantHandoffsOnA256NodeHotspot) {
  // 16 x 16 mesh, every node hammering the hotspot lock. central serves in
  // global FIFO order, so ~3/4 of its handoffs leave the releaser's
  // quadrant; hier keeps handoffs inside the quadrant up to the fairness
  // budget and must land well under that.
  auto params_for = [](const std::string& strategy) {
    SystemParams p;
    p.num_procs = 256;
    p.mesh_width = 16;
    p.page_bytes = 256;
    p.cache_bytes = 8 * 1024;
    p.locks.strategy = strategy;
    p.locks.collect_stats = true;
    return p;
  };
  const char* spec = "syn:hotspot/cs32/fan2/bursts4/seed17";
  const auto central = harness::run_experiment("AEC", spec, apps::Scale::kSmall,
                                               params_for("central"), 7);
  const auto hier = harness::run_experiment("AEC", spec, apps::Scale::kSmall,
                                            params_for("hier"), 7);
  ASSERT_TRUE(central.stats.result_valid);
  ASSERT_TRUE(hier.stats.result_valid);
  const LockMgrStats& c = central.stats.lockmgr;
  const LockMgrStats& h = hier.stats.lockmgr;
  ASSERT_GT(c.handoffs, 0u);
  ASSERT_GT(h.handoffs, 0u);
  EXPECT_GT(h.hier_skips, 0u);
  const double c_cross = static_cast<double>(c.cross_cohort) /
                         static_cast<double>(c.handoffs);
  const double h_cross = static_cast<double>(h.cross_cohort) /
                         static_cast<double>(h.handoffs);
  EXPECT_LT(h_cross, c_cross)
      << "hier cross-quadrant fraction " << h_cross << " vs central " << c_cross;
  const double c_hops = static_cast<double>(c.handoff_hops) /
                        static_cast<double>(c.handoffs);
  const double h_hops = static_cast<double>(h.handoff_hops) /
                        static_cast<double>(h.handoffs);
  EXPECT_LT(h_hops, c_hops)
      << "hier mean handoff hops " << h_hops << " vs central " << c_hops;
}

// ------------------------------------------------------------- crash interplay

class StrategyCrash : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyCrash, FailoverSurvivesAndMcsStandsDown) {
  // The contended-counter program from the crash-recovery suite: crash the
  // manager of lock 1 mid-contention. Under a crash schedule the mcs
  // machinery is disabled outright (links and direct handoffs assume the
  // manager's queue is authoritative), so the run must fall back to the
  // proven central failover chain and still lose no updates.
  constexpr int kIters = 20;
  auto run = [&](const SystemParams& params) {
    dsm::SharedArray<std::uint32_t> counter;
    LambdaApp app(
        "strategy_crash", 4096,
        [&](dsm::Machine& m) {
          counter = dsm::SharedArray<std::uint32_t>::alloc(m, 1);
        },
        [&](dsm::Context& ctx) {
          for (int i = 0; i < kIters; ++i) {
            ctx.lock(1);
            counter.put(ctx, 0, counter.get(ctx, 0) + 1);
            ctx.unlock(1);
            ctx.compute(5000);
          }
          ctx.barrier();
          if (ctx.pid() == 0) {
            app.set_ok(counter.get(ctx, 0) ==
                       static_cast<std::uint32_t>(kIters * ctx.nprocs()));
          }
        });
    return run_protocol(app, "AEC", params);
  };
  const RunStats base = run(strategy_params(4, GetParam()));
  ASSERT_TRUE(base.result_valid);
  SystemParams crash = strategy_params(4, GetParam());
  crash.faults.retransmit_timeout_cycles = 5000;
  crash.faults.crashes.push_back(
      {/*node=*/1, /*at_cycle=*/base.finish_time / 4,
       /*cycles=*/base.finish_time / 2});
  const RunStats crashed = run(crash);
  EXPECT_TRUE(crashed.result_valid)
      << GetParam() << ": updates lost through the failover";
  EXPECT_GE(crashed.recovery.failovers, 1u);
  EXPECT_EQ(crashed.lockmgr.direct_handoffs, 0u)
      << "mcs direct handoffs must be disabled under a crash schedule";
  EXPECT_EQ(crashed.lockmgr.link_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyCrash,
                         ::testing::Values("mcs", "hier"));

// ------------------------------------------------------ lock-manager golden

// Pinned FNV-1a hashes of the full result fingerprint of the lock plane's
// two managed-lock families (AEC, AEC-noLAP, Munin-ERC) under every
// strategy, crash-free and with a fail-stop crash of a lock manager. The
// committed bench baselines cover only the central strategy without
// crashes; these pins keep the mcs/hier and failover paths byte-identical
// across refactors of the lock-manager core. A deliberate change of
// simulated behaviour updates the affected entries, named with the cause.
struct GoldenCase {
  std::string preset;
  std::string strategy;
  std::string spec;
  bool crash = false;
  std::uint64_t fnv = 0;
};

class LockManagerGolden : public ::testing::TestWithParam<GoldenCase> {};

/// A crash window that lands on lock-manager traffic of `spec`, anchored at
/// the crash-free finish time `f`: migratory walks all its locks, so node 1
/// (manager of locks 1 and 5) has requests pending an eighth into the run;
/// hotspot sends 60% of its bursts to lock 0 on the uncrashable node 0, and
/// node 3 (locks 3 and 7) at 9/32 of the run is where its other locks are
/// busy enough to fail over (every crash cell but Munin-ERC/mcs/hotspot,
/// whose window catches only data traffic, re-elects a manager).
FaultWindow golden_crash(const std::string& spec, Cycles f) {
  if (spec.find("hotspot") != std::string::npos) {
    return {/*node=*/3, /*at_cycle=*/f * 9 / 32, /*cycles=*/f / 8};
  }
  return {/*node=*/1, /*at_cycle=*/f / 8, /*cycles=*/f / 4};
}

TEST_P(LockManagerGolden, FingerprintMatchesPinnedHash) {
  const GoldenCase& c = GetParam();
  SystemParams params = strategy_params(4, c.strategy);
  if (c.crash) {
    const auto base = harness::run_experiment(c.preset, c.spec,
                                              apps::Scale::kSmall, params, 7);
    ASSERT_TRUE(base.stats.result_valid);
    params.faults.retransmit_timeout_cycles = 5000;
    params.faults.crashes.push_back(golden_crash(c.spec, base.stats.finish_time));
  }
  const auto r = harness::run_experiment(c.preset, c.spec, apps::Scale::kSmall,
                                         params, 7);
  ASSERT_TRUE(r.stats.result_valid);
  if (c.crash) {
    EXPECT_TRUE(r.stats.recovery.any()) << "the crash window missed the run";
  }
  const std::uint64_t got = fnv1a64(result_fingerprint(r));
  EXPECT_EQ(got, c.fnv) << "actual 0x" << std::hex << got;
}

std::vector<GoldenCase> golden_cases() {
  const char* hot = "syn:hotspot/cs64/fan8/seed17";
  const char* mig = "syn:migratory/cs32/fan4/seed7";
  return {
      {"AEC", "central", hot, false, 0x02eb79f68863c024ull},
      {"AEC", "central", hot, true, 0x11db8435fae142faull},
      {"AEC", "central", mig, false, 0xc72379fdd8ca51c8ull},
      {"AEC", "central", mig, true, 0xd65c9cbc17c08f26ull},
      {"AEC", "mcs", hot, false, 0x4ed6413c9a6a863bull},
      {"AEC", "mcs", hot, true, 0xabf973ae1df7be07ull},
      {"AEC", "mcs", mig, false, 0xfd771752c9faf173ull},
      {"AEC", "mcs", mig, true, 0x6a4a5d5fab817236ull},
      {"AEC", "hier", hot, false, 0x6bb22d47055ba9d6ull},
      {"AEC", "hier", hot, true, 0x759307c396ff383aull},
      {"AEC", "hier", mig, false, 0x46b4a1ee89de38e4ull},
      {"AEC", "hier", mig, true, 0xe00de37c83549f0bull},
      {"AEC-noLAP", "central", hot, false, 0xe119a9126b4f37c0ull},
      {"AEC-noLAP", "central", hot, true, 0xf6fea1e9235fd386ull},
      {"AEC-noLAP", "central", mig, false, 0x8150f5cea6daba4bull},
      {"AEC-noLAP", "central", mig, true, 0x7020bfc24435726aull},
      {"AEC-noLAP", "mcs", hot, false, 0x6fed8a4c007b6ca5ull},
      {"AEC-noLAP", "mcs", hot, true, 0xb13e3ef58fa14d74ull},
      {"AEC-noLAP", "mcs", mig, false, 0x90774710d73d2d27ull},
      {"AEC-noLAP", "mcs", mig, true, 0x310ceab900d7f262ull},
      {"AEC-noLAP", "hier", hot, false, 0x3497f0eae68f0385ull},
      {"AEC-noLAP", "hier", hot, true, 0xfba0fffb0beeb640ull},
      {"AEC-noLAP", "hier", mig, false, 0x8b0ff7fab994563dull},
      {"AEC-noLAP", "hier", mig, true, 0x7c466277d5d00c03ull},
      {"Munin-ERC", "central", hot, false, 0xd75286111e17a7ecull},
      {"Munin-ERC", "central", hot, true, 0x99280bd03aebd6f3ull},
      {"Munin-ERC", "central", mig, false, 0x88cc0b66fa6e1e7aull},
      {"Munin-ERC", "central", mig, true, 0xd8273eb107213330ull},
      {"Munin-ERC", "mcs", hot, false, 0xb947e7037ee0738aull},
      {"Munin-ERC", "mcs", hot, true, 0xab8ebc789ab8960cull},
      {"Munin-ERC", "mcs", mig, false, 0xc4b90432393208eaull},
      {"Munin-ERC", "mcs", mig, true, 0x3042647b3fb2bd32ull},
      {"Munin-ERC", "hier", hot, false, 0x04ff09910c3c0fa6ull},
      {"Munin-ERC", "hier", hot, true, 0x8e3ca54e35b15e9full},
      {"Munin-ERC", "hier", mig, false, 0x109b51649cea8736ull},
      {"Munin-ERC", "hier", mig, true, 0x1d09352b157a15a2ull},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Cells, LockManagerGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      const GoldenCase& c = info.param;
      std::string s = c.preset + "_" + c.strategy + "_" +
                      c.spec.substr(c.spec.find(':') + 1, c.spec.find('/') - 4) +
                      (c.crash ? "_crash" : "");
      for (char& ch : s) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return s;
    });

// ------------------------------------------------------- fault-plane golden

// Pinned FNV-1a hashes of the full result fingerprint of fault-plane runs:
// drops and duplicates, delays with reordering and pause windows, two
// fail-stop crashes of lock managers under every preset, and seeds other
// than the default. These drive the reliable transport (retransmission
// timers, acks, duplicate suppression, held deliveries) and the failover
// chain, which the committed bench baselines never exercise. Same update
// rule as LockManagerGolden: change an entry only for a deliberate change
// of simulated behaviour, named with the cause. Raytrace draws nothing from
// the per-processor RNG, so its two seed pins share one hash: they catch a
// seed that leaks into the fault-free schedule.
enum class FaultPlane { kDropDup, kDelayReorderPause, kTwoPauses, kTwoCrashes, kNone };

struct FaultCase {
  std::string preset;
  std::string app;
  FaultPlane plane = FaultPlane::kNone;
  std::uint64_t seed = 42;
  std::uint64_t fnv = 0;
};

SystemParams fault_params(FaultPlane plane) {
  SystemParams p = small_params(8);
  switch (plane) {
    case FaultPlane::kDropDup:
      p.faults.drop_rate = 0.05;
      p.faults.dup_rate = 0.05;
      break;
    case FaultPlane::kDelayReorderPause:
      p.faults.delay_rate = 0.1;
      p.faults.reorder_rate = 0.05;
      p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/50000, /*cycles=*/20000});
      break;
    case FaultPlane::kTwoPauses:
      p.faults.pauses.push_back({/*node=*/1, /*at_cycle=*/50000, /*cycles=*/20000});
      p.faults.pauses.push_back({/*node=*/3, /*at_cycle=*/90000, /*cycles=*/30000});
      break;
    case FaultPlane::kTwoCrashes:
      // Water-ns spreads its locks over all 8 manager nodes, so crashing
      // node 3 and later node 5 takes down live lock managers with
      // requests pending under every preset.
      p.faults.crashes.push_back({/*node=*/3, /*at_cycle=*/200000, /*cycles=*/400000});
      p.faults.crashes.push_back({/*node=*/5, /*at_cycle=*/900000, /*cycles=*/300000});
      break;
    case FaultPlane::kNone:
      break;
  }
  return p;
}

const char* plane_name(FaultPlane plane) {
  switch (plane) {
    case FaultPlane::kDropDup: return "drop_dup";
    case FaultPlane::kDelayReorderPause: return "delay_reorder_pause";
    case FaultPlane::kTwoPauses: return "two_pauses";
    case FaultPlane::kTwoCrashes: return "two_crashes";
    case FaultPlane::kNone: break;
  }
  return "seed";
}

class FaultPlaneGolden : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultPlaneGolden, FingerprintMatchesPinnedHash) {
  const FaultCase& c = GetParam();
  const auto r = harness::run_experiment(c.preset, c.app, apps::Scale::kSmall,
                                         fault_params(c.plane), c.seed);
  const std::uint64_t got = fnv1a64(result_fingerprint(r));
  EXPECT_EQ(got, c.fnv) << "actual 0x" << std::hex << got;
}

std::vector<FaultCase> fault_cases() {
  using F = FaultPlane;
  return {
      {"AEC", "IS", F::kDropDup, 42, 0xc87ea93967732aacull},
      {"TreadMarks", "Ocean", F::kDropDup, 42, 0xb425e9cb472640abull},
      {"AEC", "Water-ns", F::kDelayReorderPause, 42, 0x7af18fb57d9f011dull},
      {"Munin-ERC", "IS", F::kDelayReorderPause, 42, 0xe9c58206b5d4db04ull},
      {"AEC", "IS", F::kTwoPauses, 42, 0x0a041a1ae58ef832ull},
      {"AEC", "Water-ns", F::kTwoCrashes, 42, 0x685dd6b6e0ff7392ull},
      {"AEC-noLAP", "Water-ns", F::kTwoCrashes, 42, 0x78c3d2d72edb58afull},
      {"AEC-TmkBarrier", "Water-ns", F::kTwoCrashes, 42, 0x60047b303442d343ull},
      {"TreadMarks", "Water-ns", F::kTwoCrashes, 42, 0x775f61c21f16616bull},
      {"Munin-ERC", "Water-ns", F::kTwoCrashes, 42, 0x316d36f10803c6dcull},
      {"AEC", "Raytrace", F::kNone, 7, 0xa92babcfb316eeb5ull},
      {"AEC", "Raytrace", F::kNone, 1234, 0xa92babcfb316eeb5ull},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Cells, FaultPlaneGolden, ::testing::ValuesIn(fault_cases()),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const FaultCase& c = info.param;
      std::string s = c.preset + "_" + c.app + "_" + plane_name(c.plane);
      if (c.plane == FaultPlane::kNone) s += std::to_string(c.seed);
      for (char& ch : s) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return s;
    });

// Every registered preset has a two-crash pin: a preset added later must
// add its entry, or its failover path goes unpinned.
TEST(FaultPlaneGoldenCoverage, EveryPresetHasACrashPin) {
  std::set<std::string> pinned;
  for (const FaultCase& c : fault_cases()) {
    if (c.plane == FaultPlane::kTwoCrashes) pinned.insert(c.preset);
  }
  for (const std::string& name : policy::registered_names()) {
    EXPECT_EQ(pinned.count(name), 1u) << name << " has no two-crash pin";
  }
}

}  // namespace
}  // namespace aecdsm::test
