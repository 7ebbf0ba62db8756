#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>

#include "locks/discipline.hpp"
#include "mem/diff.hpp"
#include "net/mesh.hpp"
#include "policy/lap.hpp"
#include "sim/cothread.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"

namespace hostbench {

namespace {

using aecdsm::Cycles;
using aecdsm::ProcId;
using aecdsm::Word;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : z_(seed) {}
  std::uint64_t next() {
    std::uint64_t x = (z_ += 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t z_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over `reps` repetitions of `run()`, which returns the time of
/// one operation in its own unit.
double repeat(int reps, const std::function<double()>& run) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(run());
  return median(std::move(v));
}

double elapsed_ns(std::int64_t t0) { return static_cast<double>(now_ns() - t0); }

aecdsm::SystemParams mesh_params(const ProbeShape& shape) {
  aecdsm::SystemParams p;
  p.num_procs = shape.nodes;
  p.mesh_width = static_cast<int>(std::lround(std::sqrt(shape.nodes)));
  p.page_bytes = shape.page_bytes;
  return p;
}

double context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

void probe_switch(const ProbeShape& shape, UnitCosts& out) {
  // `nodes` live threads, each parked in yield_to_engine(), resumed round
  // robin as the engine resumes processors. Destruction cancels them.
  std::vector<aecdsm::sim::CoThread*> self(static_cast<std::size_t>(shape.nodes));
  std::vector<std::unique_ptr<aecdsm::sim::CoThread>> threads;
  for (std::size_t i = 0; i < self.size(); ++i) {
    threads.push_back(std::make_unique<aecdsm::sim::CoThread>([&self, i] {
      for (;;) self[i]->yield_to_engine();
    }));
    self[i] = threads.back().get();
  }
  for (auto& t : threads) t->resume();
  constexpr std::size_t kTrips = 2000;
  std::vector<double> ns, ctx;
  for (int rep = 0; rep < 5; ++rep) {
    const double c0 = context_switches();
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < kTrips; ++k) threads[k % threads.size()]->resume();
    ns.push_back(elapsed_ns(t0) / kTrips);
    ctx.push_back((context_switches() - c0) / kTrips);
  }
  out.switch_ns = median(std::move(ns));
  out.switch_ctx_per_trip = median(std::move(ctx));
}

double probe_spawn() {
  constexpr int kSpawns = 100;
  return repeat(5, [] {
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < kSpawns; ++k) {
      aecdsm::sim::CoThread t([] {});
      t.resume();
    }
    return elapsed_ns(t0) * 1e-3 / kSpawns;
  });
}

/// Self-rescheduling empty event; small enough for std::function's inline
/// buffer, so the probe times the engine, not the allocator.
struct ChainEvent {
  aecdsm::sim::Engine* engine;
  std::uint64_t* left;
  void operator()() const {
    if (--*left > 0) engine->schedule(engine->now() + 1, ChainEvent{engine, left});
  }
};

double probe_dispatch(const ProbeShape& shape) {
  // One pending event per simulated processor sits in the heap while the
  // chain runs, as the processors' resume events do in a run.
  constexpr std::uint64_t kChain = 200000;
  const auto depth = static_cast<std::uint64_t>(shape.nodes);
  return repeat(5, [&] {
    aecdsm::sim::Engine engine;
    for (std::uint64_t d = 0; d < depth; ++d) engine.schedule(Cycles{1} << 40, [] {});
    std::uint64_t left = kChain;
    const std::int64_t t0 = now_ns();
    engine.schedule(0, ChainEvent{&engine, &left});
    engine.run();
    return elapsed_ns(t0) / static_cast<double>(kChain + depth);
  });
}

double probe_mesh(const ProbeShape& shape) {
  const aecdsm::SystemParams params = mesh_params(shape);
  Rng rng(shape.seed ^ 0x6d657368ULL);
  constexpr int kSends = 16384;
  constexpr int kBatch = 64;
  struct Msg {
    ProcId src, dst;
    std::size_t bytes;
  };
  std::vector<Msg> msgs;
  const std::size_t sizes[] = {64, shape.page_bytes / 4, shape.page_bytes};
  for (int i = 0; i < kSends; ++i) {
    const auto src = static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(shape.nodes)));
    auto dst = static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(shape.nodes - 1)));
    if (dst >= src) ++dst;
    msgs.push_back(Msg{src, dst, sizes[rng.below(3)]});
  }
  return repeat(5, [&] {
    aecdsm::sim::Engine engine;
    aecdsm::net::MeshNetwork mesh(engine, params);
    std::uint64_t delivered = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSends; i += kBatch) {
      for (int j = i; j < i + kBatch; ++j) {
        const Msg& m = msgs[static_cast<std::size_t>(j)];
        mesh.send(m.src, m.dst, m.bytes, [&delivered] { ++delivered; });
      }
      engine.run();
    }
    const double ns = elapsed_ns(t0) / kSends;
    if (delivered != kSends) throw std::runtime_error("mesh probe lost messages");
    return ns;
  });
}

struct DiffCosts {
  double create_ns, apply_ns, merge_ns;
};

DiffCosts probe_diff(const ProbeShape& shape) {
  // Pages with a quarter of their words dirtied in runs of 1..16 words, two
  // independent write sets per page (the two sides of a release merge).
  const std::size_t words = shape.page_bytes / sizeof(Word);
  constexpr std::size_t kPages = 32;
  Rng rng(shape.seed ^ 0x64696666ULL);
  std::vector<std::vector<Word>> twins, first, second;
  auto dirty = [&](std::vector<Word> page) {
    for (std::size_t w = 0; w < words / 4;) {
      const std::size_t at = rng.below(words);
      const std::size_t len = 1 + rng.below(16);
      for (std::size_t k = at; k < std::min(words, at + len); ++k) page[k] ^= 0x5A5A5A5Au;
      w += len;
    }
    return page;
  };
  for (std::size_t p = 0; p < kPages; ++p) {
    std::vector<Word> twin(words);
    for (Word& w : twin) w = static_cast<Word>(rng.next());
    first.push_back(dirty(twin));
    second.push_back(dirty(twin));
    twins.push_back(std::move(twin));
  }
  constexpr int kRounds = 40;
  std::vector<aecdsm::mem::Diff> a(kPages), b(kPages);
  DiffCosts c{};
  c.create_ns = repeat(5, [&] {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t p = 0; p < kPages; ++p) a[p] = aecdsm::mem::Diff::create(twins[p], first[p]);
    }
    return elapsed_ns(t0) / (kRounds * kPages);
  });
  for (std::size_t p = 0; p < kPages; ++p) b[p] = aecdsm::mem::Diff::create(twins[p], second[p]);
  std::vector<std::vector<Word>> targets = twins;
  c.apply_ns = repeat(5, [&] {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t p = 0; p < kPages; ++p) a[p].apply_to(targets[p]);
    }
    return elapsed_ns(t0) / (kRounds * kPages);
  });
  std::vector<aecdsm::mem::Diff> merged(kPages);
  c.merge_ns = repeat(5, [&] {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t p = 0; p < kPages; ++p) merged[p] = aecdsm::mem::Diff::merge(a[p], b[p]);
    }
    return elapsed_ns(t0) / (kRounds * kPages);
  });
  return c;
}

double probe_lap(const ProbeShape& shape) {
  // Paper defaults: K = 2, affinity threshold 60%. The history favours
  // neighbour transfers so affinity sets are non-trivial.
  const int n = shape.nodes;
  aecdsm::policy::LockLap lap(n, 2, 0.60);
  Rng rng(shape.seed ^ 0x6c6170ULL);
  auto proc = [&] { return static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(n))); };
  for (int k = 0; k < 8 * n; ++k) {
    const ProcId from = proc();
    const ProcId to = rng.below(2) == 0 ? (from + 1) % n : proc();
    if (to != from) lap.record_transfer(from, to);
  }
  for (std::size_t k = 0; k < shape.queue_depth; ++k) lap.enqueue_waiter(proc());
  for (int k = 0; k < n / 4; ++k) lap.add_notice(proc());
  std::vector<ProcId> releasers;
  for (int k = 0; k < 4096; ++k) releasers.push_back(proc());
  constexpr std::size_t kCalls = 20000;
  std::size_t sink = 0;
  const double ns = repeat(5, [&] {
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < kCalls; ++k) {
      sink += lap.compute_update_set(releasers[k % releasers.size()]).size();
    }
    return elapsed_ns(t0) / kCalls;
  });
  if (sink == 0) throw std::runtime_error("LAP probe predicted nothing");
  return ns;
}

double probe_pick_waiter(const ProbeShape& shape) {
  const aecdsm::SystemParams params = mesh_params(shape);
  Rng rng(shape.seed ^ 0x7069636bULL);
  std::deque<ProcId> waiting;
  for (std::size_t k = 0; k < shape.queue_depth; ++k) {
    waiting.push_back(static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(shape.nodes))));
  }
  std::vector<ProcId> releasers;
  for (int k = 0; k < 4096; ++k) {
    releasers.push_back(static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(shape.nodes))));
  }
  constexpr std::size_t kCalls = 50000;
  std::vector<double> per_strategy;
  std::size_t sink = 0;
  for (const std::string& name : shape.strategies) {
    const aecdsm::locks::Strategy strategy = aecdsm::locks::parse_strategy(name);
    per_strategy.push_back(repeat(5, [&] {
      int streak = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < kCalls; ++k) {
        sink += aecdsm::locks::pick_waiter(waiting, strategy, releasers[k % releasers.size()],
                                           params, streak)
                    .index;
      }
      return elapsed_ns(t0) / kCalls;
    }));
  }
  volatile std::size_t keep = sink;  // the picks stay observable, so the calls stay
  (void)keep;
  double sum = 0;
  for (const double v : per_strategy) sum += v;
  return sum / static_cast<double>(per_strategy.size());
}

void probe_cache(const std::vector<CellOutput>& cells, const std::string& work_dir,
                 UnitCosts& out) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(work_dir) / ("probe-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const harness::CellCache cache(dir.string());
  const double n = static_cast<double>(cells.size());
  out.cache_store_ms = repeat(3, [&] {
    const std::int64_t t0 = now_ns();
    for (const CellOutput& c : cells) cache.store(c.cell, c.result);
    return elapsed_ns(t0) * 1e-6 / n;
  });
  out.cache_load_ms = repeat(3, [&] {
    const std::int64_t t0 = now_ns();
    for (const CellOutput& c : cells) {
      if (!cache.load(c.cell)) throw std::runtime_error("cache probe missed " + c.cell.label);
    }
    return elapsed_ns(t0) * 1e-6 / n;
  });
  fs::remove_all(dir);
}

void probe_harness(const Plan& paper, UnitCosts& out) {
  namespace artifact_diff = harness::artifact_diff;
  json::Value parsed;
  out.json_parse_ms = repeat(3, [&] {
    const std::int64_t t0 = now_ns();
    parsed = json::Value::parse(paper.baseline_text);
    return elapsed_ns(t0) * 1e-6;
  });
  out.json_dump_ms = repeat(3, [&] {
    const std::int64_t t0 = now_ns();
    const std::string text = parsed.dump() + "\n";
    const double ms = elapsed_ns(t0) * 1e-6;
    if (text != paper.baseline_text) throw std::runtime_error("baseline does not round-trip");
    return ms;
  });
  const artifact_diff::Document before = artifact_diff::load(parsed, "baseline");
  out.artifact_diff_ms = repeat(3, [&] {
    const std::int64_t t0 = now_ns();
    const artifact_diff::Document after = artifact_diff::load(parsed, "replay");
    const artifact_diff::DiffResult d =
        artifact_diff::diff(before, after, artifact_diff::Tolerances{});
    const double ms = elapsed_ns(t0) * 1e-6;
    if (d.gate_failed()) throw std::runtime_error("baseline differs from itself");
    return ms;
  });
  std::vector<harness::ExperimentResult> results;
  for (CellOutput& o : baseline_outputs(paper)) results.push_back(std::move(o.result));
  out.report_ms = repeat(3, [&] {
    const std::int64_t t0 = now_ns();
    const json::Value doc = build_reports(paper, results);
    return elapsed_ns(t0) * 1e-6;
  });
}

}  // namespace

UnitCosts run_probes(const ProbeShape& shape, const Plan& paper,
                     const std::vector<CellOutput>& cells, const std::string& work_dir) {
  UnitCosts c;
  probe_switch(shape, c);
  c.spawn_us = probe_spawn();
  c.dispatch_ns = probe_dispatch(shape);
  c.mesh_send_ns = probe_mesh(shape);
  const DiffCosts d = probe_diff(shape);
  c.diff_create_ns = d.create_ns;
  c.diff_apply_ns = d.apply_ns;
  c.diff_merge_ns = d.merge_ns;
  c.lap_update_ns = probe_lap(shape);
  c.pick_waiter_ns = probe_pick_waiter(shape);
  probe_cache(cells, work_dir, c);
  probe_harness(paper, c);
  return c;
}

}  // namespace hostbench
