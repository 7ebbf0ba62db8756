#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "apps/registry.hpp"
#include "apps/synthetic/workload.hpp"
#include "common/check.hpp"
#include "dsm/system.hpp"
#include "harness/json_out.hpp"
#include "harness/lap_report.hpp"
#include "policy/instance.hpp"
#include "spans.hpp"

namespace hostbench {

namespace fs = std::filesystem;
namespace artifact_diff = harness::artifact_diff;
using aecdsm::SimError;
using aecdsm::TimeoutError;

namespace {

constexpr const char* kFingerprintSchema = "hostbench-fingerprints-v1";

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* scale_name(aecdsm::apps::Scale s) {
  return s == aecdsm::apps::Scale::kSmall ? "small" : "default";
}

/// Alignment key of a cell: its simulation inputs, spelled as the batch
/// documents spell them, so plan cells and baseline cells meet.
std::string content_key(const std::string& protocol, const std::string& app,
                        const std::string& scale, std::uint64_t seed,
                        const std::string& params_compact) {
  return hex64(fnv1a64(protocol + '|' + app + '|' + scale + '|' + std::to_string(seed) +
                       '|' + params_compact));
}

std::string content_key(const harness::ExperimentCell& c) {
  return content_key(c.protocol, c.app, scale_name(c.scale), c.seed,
                     harness::to_json(c.params).dump(-1));
}

/// Baseline cells by content key; the pointers point into `baseline`.
using BaselineIndex = std::unordered_map<std::string, const json::Value*>;

BaselineIndex index_baseline(const json::Value& baseline) {
  BaselineIndex by_key;
  for (const auto& [bench, doc] : baseline.at("benches").entries()) {
    for (const json::Value& c : doc.at("cells").items()) {
      by_key.try_emplace(content_key(c.at("protocol").as_string(), c.at("app").as_string(),
                                     c.at("scale").as_string(), c.at("seed").as_uint(),
                                     c.at("params").dump(-1)),
                         &c);
    }
  }
  return by_key;
}

std::string fingerprint_path(const std::string& repo) {
  return (fs::path(repo) / "hostbench" / "data" / "fingerprints.json").string();
}

/// bench_all's plan: the union of every registered bench, deduplicated by
/// CellCache::cell_hash, first occurrence wins.
void build_paper_plan(Plan& plan) {
  std::unordered_map<std::string, std::size_t> index_of_hash;
  for (const harness::BenchDef* def : harness::registered_benches()) {
    if (!def->in_bench_all) continue;
    BenchInstance inst{def, def->plan(), {}};
    for (const harness::ExperimentCell& cell : inst.plan.cells) {
      auto [it, inserted] =
          index_of_hash.try_emplace(harness::CellCache::cell_hash(cell), plan.cells.size());
      if (inserted) plan.cells.push_back(BenchCell{cell, std::nullopt, 0});
      inst.cell_index.push_back(it->second);
    }
    plan.plan_cells += inst.plan.cells.size();
    plan.instances.push_back(std::move(inst));
  }
}

/// bench_lock_scale's cell parameters at 256 nodes.
aecdsm::SystemParams lock_params(const std::string& strategy) {
  aecdsm::SystemParams p;
  p.num_procs = 256;
  p.mesh_width = 16;
  p.page_bytes = 256;
  p.cache_bytes = 8 * 1024;
  p.locks.strategy = strategy;
  p.locks.collect_stats = true;
  return p;
}

void build_lock_plan(Plan& plan, std::uint64_t variant) {
  const std::vector<std::string> specs = {
      "syn:hotspot/cs64/fan2/bursts4/seed" + std::to_string(17 + variant),
      "syn:migratory/cs32/fan4/seed" + std::to_string(7 + variant)};
  for (const char* protocol : {"AEC", "Munin-ERC"}) {
    for (const std::string& spec : specs) {
      (void)aecdsm::apps::synthetic::WorkloadSpec::parse(spec);
      for (const char* strategy : {"central", "mcs", "hier"}) {
        harness::ExperimentCell cell;
        cell.label = std::string(protocol) + "/" + strategy + "/" + spec;
        cell.protocol = protocol;
        cell.app = spec;
        cell.scale = aecdsm::apps::Scale::kSmall;
        cell.params = lock_params(strategy);
        cell.seed = 7;
        plan.cells.push_back(BenchCell{std::move(cell), std::nullopt, 0});
      }
    }
  }
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = n; i > 1; --i) {
    z += 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    std::swap(order[i - 1], order[x % i]);
  }
  return order;
}

const char* proto_layer(const std::string& protocol) {
  static std::map<std::string, std::string> names;
  auto [it, inserted] = names.try_emplace(protocol, "proto." + protocol);
  return it->second.c_str();
}

struct Usage {
  double cpu_s, sys_s, ctx;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{sec(ru.ru_utime) + sec(ru.ru_stime), sec(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

void add_counts(Counts& c, const harness::ExperimentResult& r) {
  const aecdsm::RunStats& s = r.stats;
  ++c.cells;
  c.events += s.engine_events;
  c.sim_cycles += s.finish_time;
  c.threads += static_cast<std::uint64_t>(s.num_procs);
  c.messages += s.msgs.messages;
  c.bytes += s.msgs.bytes;
  c.diffs_created += s.diffs.diffs_created;
  c.diffs_applied += s.diffs.diffs_applied;
  c.diff_bytes += s.diffs.diff_bytes;
  c.diffs_merged += s.diffs.merged_result_count;
  c.faults += s.faults.read_faults + s.faults.write_faults;
  for (const auto& [lock, sc] : r.lap_scores) {
    c.lap_predictions += sc.lap.predictions;
    c.lap_hits += sc.lap.hits;
  }
  c.lock_acquires += s.sync.lock_acquires;
  c.grants += s.lockmgr.grants;
  c.handoffs += s.lockmgr.handoffs;
  c.direct_handoffs += s.lockmgr.direct_handoffs;
  c.fallbacks += s.lockmgr.fallback_rels;
  c.queue_depth_sum += s.lockmgr.queue_depth_sum;
}

/// Compare one cell's output with its known-good form; "" when it matches.
std::string check_cell(const BenchCell& bc, const std::string& bytes) {
  if (!bc.expected) return "no known-good result";
  const Expected& e = *bc.expected;
  if (!e.bytes.empty()) return bytes == e.bytes ? "" : "stats differ from the baseline";
  return fnv1a64(bytes) == e.fnv && bytes.size() == e.length
             ? ""
             : "stats differ from the committed fingerprint";
}

/// Simulate one cell the way harness::run_experiment does, with a span
/// around each layer call. Throws what run_experiment would.
harness::ExperimentResult simulate(const harness::ExperimentCell& cell,
                                   double timeout_sec = kCellTimeoutSec) {
  std::unique_ptr<aecdsm::dsm::App> app;
  {
    Scope s("apps::make_app", "dsm");
    app = aecdsm::apps::make_app(cell.app, cell.scale);
  }
  std::optional<aecdsm::policy::ProtocolInstance> inst;
  {
    Scope s("policy::make_instance", "dsm");
    inst.emplace(aecdsm::policy::make_instance(cell.protocol));
  }
  aecdsm::dsm::RunConfig cfg;
  cfg.params = cell.params;
  cfg.seed = cell.seed;
  cfg.wall_timeout_sec = timeout_sec;
  harness::ExperimentResult out;
  {
    Scope s("dsm::run_app", proto_layer(cell.protocol));
    out.stats = aecdsm::dsm::run_app(*app, inst->suite(), cfg);
  }
  out.aec = inst->aec_shared();
  out.tm = inst->tm_shared();
  out.erc = inst->erc_shared();
  {
    Scope s("harness::lap_scores_of", "policy");
    out.lap_scores = harness::lap_scores_of(out);
  }
  Scope s("teardown", "dsm");
  out.aec.reset();
  out.tm.reset();
  out.erc.reset();
  inst.reset();
  app.reset();
  return out;
}

void fail(PassResult& pr, const std::string& label, const std::string& why) {
  ++pr.failed;
  pr.failures.push_back(label + ": " + why);
}

std::uint32_t next_cell_id() {
  static std::uint32_t id = 0;
  return ++id;
}

void run_simulated_pass(Plan& plan, const std::vector<std::size_t>& order, bool keep,
                        PassResult& pr) {
  for (const std::size_t i : order) {
    const BenchCell& bc = plan.cells[i];
    const double left_s = static_cast<double>(plan.deadline_ns - now_ns()) * 1e-9;
    if (left_s <= 0) {
      pr.cut = true;
      return;
    }
    plan.cpus.next();
    tracer().cell = next_cell_id();
    Scope cell_span("cell", "harness");
    ++pr.attempted;
    try {
      harness::ExperimentResult r = simulate(bc.cell, std::min(kCellTimeoutSec, left_s));
      if (!r.stats.result_valid) {
        fail(pr, bc.cell.label, "oracle check failed");
        continue;
      }
      std::string bytes;
      {
        Scope s("serialize", "harness.json");
        bytes = serialize_cell(r);
      }
      if (const std::string why = check_cell(bc, bytes); !why.empty()) {
        fail(pr, bc.cell.label, why);
        continue;
      }
      add_counts(pr.counts, r);
      if (keep) pr.outputs.push_back(CellOutput{bc.cell, std::move(r)});
    } catch (const TimeoutError& e) {
      if (left_s < kCellTimeoutSec) {  // stopped by the run's limit, not its own
        --pr.attempted;
        pr.cut = true;
        return;
      }
      fail(pr, bc.cell.label, std::string("timeout: ") + e.what());
    } catch (const SimError& e) {
      fail(pr, bc.cell.label, std::string("SimError: ") + e.what());
    }
  }
}

void run_warm_pass(Plan& plan, const std::vector<std::size_t>& order, PassResult& pr,
                   std::uint64_t& events_served) {
  std::vector<harness::ExperimentResult> results(plan.cells.size());
  bool complete = true;
  for (const std::size_t i : order) {
    const BenchCell& bc = plan.cells[i];
    tracer().cell = next_cell_id();
    Scope cell_span("cell", "harness");
    ++pr.attempted;
    std::optional<harness::ExperimentResult> r;
    {
      Scope s("CellCache::load", "harness.cache");
      r = plan.cache->load(bc.cell);
    }
    if (!r) {
      fail(pr, bc.cell.label, "cache miss");
      complete = false;
      continue;
    }
    std::string bytes;
    {
      Scope s("serialize", "harness.json");
      bytes = serialize_cell(*r);
    }
    if (const std::string why = check_cell(bc, bytes); !why.empty()) {
      fail(pr, bc.cell.label, why);
      complete = false;
      continue;
    }
    ++pr.counts.cells;
    pr.counts.sim_cycles += r->stats.finish_time;
    events_served += bc.committed_events;
    results[i] = std::move(*r);
  }
  tracer().cell = 0;
  ++pr.attempted;  // the combined document counts as one more output
  if (!complete) {
    fail(pr, "bench_all document", "not built: a cell failed");
    return;
  }
  const json::Value combined = build_reports(plan, results);
  std::string text;
  {
    Scope s("json::Value::dump", "harness.json");
    text = combined.dump() + "\n";
  }
  if (text != plan.baseline_text) {
    fail(pr, "bench_all document", "differs from bench/baselines/bench_all.json");
    return;
  }
  Scope s("artifact_diff", "harness.artifact_diff");
  const artifact_diff::Document fresh = artifact_diff::load(combined, kWarmReplay);
  const artifact_diff::DiffResult d =
      artifact_diff::diff(plan.baseline_doc, fresh, artifact_diff::Tolerances{});
  if (d.gate_failed() || d.compared != plan.baseline_doc.cells.size()) {
    fail(pr, "bench_all document", "artifact_diff gate failed");
  }
}

}  // namespace

void CpuRotation::next() {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[turn++ % cpus.size()], &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("cannot pin to a CPU of the allowed set");
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string serialize_cell(const harness::ExperimentResult& r) {
  return harness::to_json(r.stats).dump(-1) + "\n" + harness::lap_json(r).dump(-1);
}

Plan set_up(const SetupOptions& opt) {
  Scope setup_span("set_up", "harness");
  Plan plan;
  plan.workload = opt.workload;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("cannot read the allowed CPU set");
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) plan.cpus.cpus.push_back(c);
  }
  const bool paper = opt.workload == kPaperSweep || opt.workload == kWarmReplay;
  if (!paper && opt.workload != kLock256) {
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  }
  {
    Scope s("plan", "harness");
    if (paper) {
      build_paper_plan(plan);
    } else {
      build_lock_plan(plan, opt.seed % kLockVariants);
    }
  }

  json::Value fingerprints;
  {
    Scope s("fingerprints", "harness.json");
    fingerprints = json::Value::parse(read_text(fingerprint_path(opt.repo)));
    if (fingerprints.at("schema").as_string() != kFingerprintSchema) {
      throw std::runtime_error("unknown fingerprint schema");
    }
  }
  if (!paper) {
    const json::Value& cells = fingerprints.at("lock256");
    for (BenchCell& bc : plan.cells) {
      if (const json::Value* f = cells.find(bc.cell.label)) {
        bc.expected = Expected{"", std::stoull(f->at("fnv").as_string(), nullptr, 16),
                               f->at("bytes").as_uint()};
        bc.committed_events = f->at("engine_events").as_uint();
      }
    }
    return plan;
  }

  json::Value baseline;
  {
    Scope s("baseline", "harness.json");
    plan.baseline_text = read_text(
        (fs::path(opt.repo) / "bench" / "baselines" / "bench_all.json").string());
    baseline = json::Value::parse(plan.baseline_text);
  }
  // Known-good bytes and, for warm_replay, the cached results, both from
  // the baseline cells aligned by content key.
  const BaselineIndex by_key = index_baseline(baseline);
  const json::Value& events = fingerprints.at("paper_events");
  for (BenchCell& bc : plan.cells) {
    const std::string key = content_key(bc.cell);
    if (const auto it = by_key.find(key); it != by_key.end()) {
      bc.expected = Expected{it->second->at("stats").dump(-1) + "\n" +
                                 it->second->at("lap").dump(-1),
                             0, 0};
    }
    if (const json::Value* e = events.find(key)) bc.committed_events = e->as_uint();
  }
  if (opt.workload != kWarmReplay) return plan;

  {
    Scope s("artifact_diff::load", "harness.artifact_diff");
    plan.baseline_doc = artifact_diff::load(baseline, "bench/baselines/bench_all.json");
  }
  static int cache_seq = 0;
  const fs::path dir = fs::path(opt.work_dir) /
                       ("cache-" + std::to_string(::getpid()) + "-" + std::to_string(cache_seq++));
  fs::remove_all(dir);
  plan.cache = std::make_unique<harness::CellCache>(dir.string());
  for (const BenchCell& bc : plan.cells) {
    const auto it = by_key.find(content_key(bc.cell));
    if (it == by_key.end()) continue;  // the pass reports the miss
    harness::ExperimentResult r;
    r.stats = harness::run_stats_from_json(it->second->at("stats"));
    r.lap_scores = harness::lap_scores_from_json(it->second->at("lap"));
    Scope s("CellCache::store", "harness.cache");
    plan.cache->store(bc.cell, r);
  }
  return plan;
}

PassResult run_pass(Plan& plan, std::uint64_t order_seed, bool keep_outputs) {
  PassResult pr;
  const std::vector<std::size_t> order = permutation(plan.cells.size(), order_seed);
  std::uint64_t events_served = 0;
  const Usage u0 = usage_now();
  const std::int64_t t0 = now_ns();
  if (plan.workload == kWarmReplay) {
    plan.cpus.next();
    run_warm_pass(plan, order, pr, events_served);
  } else {
    run_simulated_pass(plan, order, keep_outputs, pr);
    events_served = pr.counts.events;
  }
  const std::int64_t t1 = now_ns();
  const Usage u1 = usage_now();
  tracer().cell = 0;
  pr.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  pr.cpu_s = u1.cpu_s - u0.cpu_s;
  pr.sys_s = u1.sys_s - u0.sys_s;
  pr.ctx_switches = u1.ctx - u0.ctx;
  pr.events_per_s = static_cast<double>(events_served) / pr.wall_s;
  return pr;
}

std::vector<CellOutput> baseline_outputs(const Plan& plan) {
  const json::Value baseline = json::Value::parse(plan.baseline_text);
  const BaselineIndex by_key = index_baseline(baseline);
  std::vector<CellOutput> out;
  for (const BenchCell& bc : plan.cells) {
    const auto it = by_key.find(content_key(bc.cell));
    if (it == by_key.end()) throw std::runtime_error("baseline lacks " + bc.cell.label);
    CellOutput o{bc.cell, {}};
    o.result.stats = harness::run_stats_from_json(it->second->at("stats"));
    o.result.lap_scores = harness::lap_scores_from_json(it->second->at("lap"));
    o.result.from_cache = true;
    out.push_back(std::move(o));
  }
  return out;
}

json::Value build_reports(const Plan& plan,
                          const std::vector<harness::ExperimentResult>& results) {
  json::Value combined = json::Value::object();
  combined["schema"] = json::Value("aecdsm-bench-all-v1");
  combined["plan"] = json::Value("bench_all");
  combined["unique_cells"] = json::Value(static_cast<std::uint64_t>(plan.cells.size()));
  combined["plan_cells"] = json::Value(static_cast<std::uint64_t>(plan.plan_cells));
  json::Value benches = json::Value::object();
  for (const BenchInstance& inst : plan.instances) {
    std::vector<harness::ExperimentResult> rs;
    rs.reserve(inst.cell_index.size());
    for (const std::size_t idx : inst.cell_index) rs.push_back(results[idx]);
    json::Value doc;
    {
      Scope s("BatchRunner::document", "harness.report");
      doc = harness::BatchRunner::document(inst.plan, rs);
    }
    {
      Scope s("report", "harness.report");
      harness::BenchReport rep{inst.plan, rs, doc};
      inst.def->report(rep);
    }
    benches[inst.def->name] = std::move(doc);
  }
  combined["benches"] = std::move(benches);
  return combined;
}

void write_fingerprints(const SetupOptions& opt, const std::string& path) {
  json::Value lock = json::Value::object();
  for (std::uint64_t v = 0; v < kLockVariants; ++v) {
    Plan plan;
    build_lock_plan(plan, v);
    for (const BenchCell& bc : plan.cells) {
      const harness::ExperimentResult r = simulate(bc.cell);
      AECDSM_CHECK_MSG(r.stats.result_valid, bc.cell.label << " failed its oracle check");
      const std::string bytes = serialize_cell(r);
      json::Value f = json::Value::object();
      f["fnv"] = json::Value(hex64(fnv1a64(bytes)));
      f["bytes"] = json::Value(static_cast<std::uint64_t>(bytes.size()));
      f["finish_time"] = json::Value(r.stats.finish_time);
      f["engine_events"] = json::Value(r.stats.engine_events);
      lock[bc.cell.label] = std::move(f);
      std::fprintf(stderr, "[fingerprint] %s: %llu events\n", bc.cell.label.c_str(),
                   static_cast<unsigned long long>(r.stats.engine_events));
    }
  }
  // The paper cells must match the baseline before their event counts are
  // recorded; warm_replay quotes them.
  Plan paper;
  build_paper_plan(paper);
  const std::string baseline_text =
      read_text((fs::path(opt.repo) / "bench" / "baselines" / "bench_all.json").string());
  paper.baseline_text = baseline_text;
  const std::vector<CellOutput> known = baseline_outputs(paper);
  json::Value events = json::Value::object();
  for (std::size_t i = 0; i < paper.cells.size(); ++i) {
    const harness::ExperimentResult r = simulate(paper.cells[i].cell);
    AECDSM_CHECK_MSG(serialize_cell(r) == serialize_cell(known[i].result),
                     paper.cells[i].cell.label << " differs from the baseline");
    events[content_key(paper.cells[i].cell)] = json::Value(r.stats.engine_events);
  }
  json::Value doc = json::Value::object();
  doc["schema"] = json::Value(kFingerprintSchema);
  doc["lock_variants"] = json::Value(kLockVariants);
  doc["lock256"] = std::move(lock);
  doc["paper_events"] = std::move(events);
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot write " + path);
  doc.write(out);
  out << "\n";
}

}  // namespace hostbench
