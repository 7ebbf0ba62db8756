// Google-benchmark microbenchmarks of the host-side cost of the simulator's
// core primitives (diff machinery, interconnect model, event engine, batch
// runner). These measure the *simulator's* speed, complementing the
// experiment drivers that measure *simulated* time.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/params.hpp"
#include "harness/batch.hpp"
#include "mem/diff.hpp"
#include "net/mesh.hpp"
#include "sim/cothread.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aecdsm;

std::vector<Word> make_page(std::size_t words, std::uint64_t seed) {
  std::vector<Word> page(words);
  std::uint64_t z = seed;
  for (Word& w : page) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    w = static_cast<Word>(z);
  }
  return page;
}

// Diff creation, vectorized (chunked) encoder vs the scalar oracle, swept
// over page size (words: 1 KiB / 4 KiB / 16 KiB pages) and modification
// stride. The pair quantifies the SIMD speedup as a tracked number — the
// same cells run warm in CI via the batch telemetry.
void BM_DiffCreate(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  auto twin = make_page(words, 1);
  auto cur = twin;
  // Modify a fraction of the words controlled by the benchmark argument.
  const std::size_t stride = static_cast<std::size_t>(state.range(1));
  for (std::size_t i = 0; i < words; i += stride) cur[i] ^= 0xDEADBEEF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::Diff::create(twin, cur));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words * sizeof(Word)));
}
BENCHMARK(BM_DiffCreate)
    ->ArgsProduct({{256, 1024, 4096}, {1, 8, 64}});

void BM_DiffCreateScalar(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  auto twin = make_page(words, 1);
  auto cur = twin;
  const std::size_t stride = static_cast<std::size_t>(state.range(1));
  for (std::size_t i = 0; i < words; i += stride) cur[i] ^= 0xDEADBEEF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::Diff::create_scalar(twin, cur));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words * sizeof(Word)));
}
BENCHMARK(BM_DiffCreateScalar)
    ->ArgsProduct({{256, 1024, 4096}, {1, 8, 64}});

void BM_DiffApply(benchmark::State& state) {
  const std::size_t words = 1024;
  auto twin = make_page(words, 1);
  auto cur = twin;
  const std::size_t stride = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < words; i += stride) cur[i] ^= 0xDEADBEEF;
  const mem::Diff d = mem::Diff::create(twin, cur);
  auto target = make_page(words, 2);
  for (auto _ : state) {
    d.apply_to(target);
    benchmark::DoNotOptimize(target.data());
  }
}
BENCHMARK(BM_DiffApply)->Arg(1)->Arg(8)->Arg(64);

void BM_DiffMerge(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  auto twin = make_page(words, 1);
  auto a = twin;
  auto b = twin;
  for (std::size_t i = 0; i < words; i += 4) a[i] ^= 0x1111;
  for (std::size_t i = 2; i < words; i += 4) b[i] ^= 0x2222;
  const mem::Diff da = mem::Diff::create(twin, a);
  const mem::Diff db = mem::Diff::create(twin, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::Diff::merge(da, db));
  }
}
BENCHMARK(BM_DiffMerge)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DiffMergeOverlap(benchmark::State& state) {
  // Release-point merge shape: long overlapping dirty stretches where the
  // newer diff must win word-by-word, the worst case for the two-pointer
  // run merge. The argument is the length of each dirty stretch.
  const std::size_t words = 1024;
  const std::size_t stretch = static_cast<std::size_t>(state.range(0));
  auto twin = make_page(words, 1);
  auto a = twin;
  auto b = twin;
  for (std::size_t base = 0; base + stretch <= words; base += 2 * stretch) {
    for (std::size_t k = 0; k < stretch; ++k) a[base + k] ^= 0x3333;
    // Overlap the second half of each of a's stretches, plus fresh words.
    for (std::size_t k = stretch / 2; k < stretch + stretch / 2 && base + k < words; ++k) {
      b[base + k] ^= 0x4444;
    }
  }
  const mem::Diff da = mem::Diff::create(twin, a);
  const mem::Diff db = mem::Diff::create(twin, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::Diff::merge(da, db));
  }
}
BENCHMARK(BM_DiffMergeOverlap)->Arg(8)->Arg(64)->Arg(256);

void BM_MeshSend(benchmark::State& state) {
  SystemParams params;
  for (auto _ : state) {
    sim::Engine engine;
    net::MeshNetwork net(engine, params);
    int delivered = 0;
    for (int i = 0; i < 64; ++i) {
      net.send(i % 16, (i * 7) % 16, 4096, [&delivered] { ++delivered; });
    }
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
}
BENCHMARK(BM_MeshSend);

void BM_EngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (Cycles t = 0; t < 1000; ++t) {
      engine.schedule(t * 10, [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EngineEvents);

// Engine <-> simulated-processor switch: one resume/yield round trip, with
// `range(0)` live fibers parked in yield_to_engine() and resumed round
// robin, as the engine resumes processors. Destruction cancels them.
void BM_CoThreadSwitch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::CoThread*> self(n);
  std::vector<std::unique_ptr<sim::CoThread>> fibers;
  std::vector<std::uint64_t> trips(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    fibers.push_back(std::make_unique<sim::CoThread>([&self, &trips, i] {
      for (;;) {
        ++trips[i];
        self[i]->yield_to_engine();
      }
    }));
    self[i] = fibers.back().get();
  }
  for (auto& f : fibers) f->resume();
  std::size_t k = 0;
  for (auto _ : state) {
    fibers[k]->resume();
    if (++k == n) k = 0;
  }
  benchmark::DoNotOptimize(trips.data());
}
BENCHMARK(BM_CoThreadSwitch)->Arg(16)->Arg(256);

// Create, run to completion and destroy one CoThread (stack map included).
void BM_CoThreadSpawn(benchmark::State& state) {
  std::uint64_t ran = 0;
  for (auto _ : state) {
    sim::CoThread t([&ran] { ++ran; });
    t.resume();
  }
  benchmark::DoNotOptimize(ran);
}
BENCHMARK(BM_CoThreadSpawn);

void BM_BatchRunnerSmallPlan(benchmark::State& state) {
  // Host-side throughput of the batch scheduler itself: a small-scale plan
  // of independent simulations executed at the given worker count.
  SystemParams params;
  params.num_procs = 4;
  params.mesh_width = 2;
  params.page_bytes = 256;
  params.cache_bytes = 8 * 1024;
  harness::ExperimentPlan plan;
  plan.name = "micro_batch";
  for (int i = 0; i < 4; ++i) {
    plan.add("AEC", "IS", apps::Scale::kSmall, params);
  }
  harness::BatchOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  opts.json_path = "off";
  for (auto _ : state) {
    harness::BatchRunner runner(opts);
    auto results = runner.run(plan);
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_BatchRunnerSmallPlan)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

// Batch flags (--jobs/--json) are stripped before google-benchmark parses
// the rest, so the shared bench CLI works uniformly across all 12 binaries.
int main(int argc, char** argv) {
  aecdsm::harness::parse_batch_cli(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
