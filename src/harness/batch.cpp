#include "harness/batch.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "harness/cellcache.hpp"
#include "harness/threadpool.hpp"
#include "trace/export.hpp"
#include "trace/overlap.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::harness {

ExperimentCell& ExperimentPlan::add(std::string protocol, std::string app,
                                    apps::Scale scale, SystemParams params,
                                    std::uint64_t seed) {
  ExperimentCell cell;
  cell.label = protocol + "/" + app;
  cell.protocol = std::move(protocol);
  cell.app = std::move(app);
  cell.scale = scale;
  cell.params = params;
  cell.seed = seed;
  cells.push_back(std::move(cell));
  return cells.back();
}

namespace {

[[noreturn]] void print_usage_and_exit(const char* argv0) {
  std::printf(
      "usage: %s [--jobs N] [--json PATH | --no-json] [cache flags]\n"
      "  --jobs N        run up to N simulations concurrently\n"
      "                  (default: AECDSM_JOBS, then hardware_concurrency)\n"
      "  --json PATH     write the batch JSON document to PATH ('-' = stdout;\n"
      "                  default: <plan>.json in the working directory)\n"
      "  --no-json       skip the JSON artifact\n"
      "  --cache-dir D   cell result cache location (default: AECDSM_CACHE_DIR,\n"
      "                  then XDG_CACHE_HOME/aecdsm, then ~/.cache/aecdsm)\n"
      "  --no-cache      disable the cell cache (always simulate, never store)\n"
      "  --refresh       re-simulate every cell but refresh the cached copies\n"
      "  --fail-fast     abort the batch on the first cell failure\n"
      "  --max-mem M     cap the estimated memory of concurrently running\n"
      "                  cells at M MiB (default: AECDSM_MAX_MEM; 0 = off)\n"
      "  --cell-timeout S  mark a cell as \"timeout\" in the artifact after S\n"
      "                  seconds of wall clock instead of letting it hang\n"
      "  --trace PATH    record every cell and write one combined Chrome\n"
      "                  trace_event file (load in Perfetto / chrome://tracing)\n"
      "  --trace-dir D   record every cell and write per-cell trace files\n"
      "                  (<label>.trace.json + <label>.perfetto.json) into D\n"
      "                  (tracing bypasses the cell cache: every cell simulates)\n"
      "  --verify-cache  debug: re-simulate the first warm cache hit cold and\n"
      "                  fail unless the artifacts match byte for byte\n",
      argv0);
  std::exit(0);
}

/// Value of "--flag V" or "--flag=V"; advances i past a separate value.
bool flag_value(int argc, char** argv, int& i, const char* flag, std::string& out) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, len) != 0) return false;
  if (argv[i][len] == '=') {
    out = argv[i] + len + 1;
    return true;
  }
  if (argv[i][len] == '\0') {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
      std::exit(2);
    }
    out = argv[++i];
    return true;
  }
  return false;
}

}  // namespace

BatchOptions parse_batch_cli(int& argc, char** argv) {
  BatchOptions opts;
  if (const char* env = std::getenv("AECDSM_MAX_MEM")) {
    const long mb = std::atol(env);
    if (mb > 0) opts.max_mem_mb = static_cast<std::size_t>(mb);
  }
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage_and_exit(argv[0]);
    } else if (flag_value(argc, argv, i, "--jobs", value)) {
      opts.jobs = std::atoi(value.c_str());
      if (opts.jobs <= 0) {
        std::fprintf(stderr, "%s: --jobs wants a positive integer, got '%s'\n",
                     argv[0], value.c_str());
        std::exit(2);
      }
    } else if (flag_value(argc, argv, i, "--json", value)) {
      opts.json_path = value.empty() ? std::string("-") : value;
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      opts.json_path = "off";
    } else if (flag_value(argc, argv, i, "--cache-dir", value)) {
      opts.cache_dir = value;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      opts.no_cache = true;
    } else if (std::strcmp(argv[i], "--refresh") == 0) {
      opts.refresh = true;
    } else if (std::strcmp(argv[i], "--fail-fast") == 0) {
      opts.fail_fast = true;
    } else if (flag_value(argc, argv, i, "--max-mem", value)) {
      const long mb = std::atol(value.c_str());
      if (mb < 0) {
        std::fprintf(stderr, "%s: --max-mem wants a size in MiB >= 0, got '%s'\n",
                     argv[0], value.c_str());
        std::exit(2);
      }
      opts.max_mem_mb = static_cast<std::size_t>(mb);
    } else if (flag_value(argc, argv, i, "--trace", value)) {
      opts.trace_path = value;
    } else if (flag_value(argc, argv, i, "--trace-dir", value)) {
      opts.trace_dir = value;
    } else if (std::strcmp(argv[i], "--verify-cache") == 0) {
      opts.verify_cache = true;
    } else if (flag_value(argc, argv, i, "--cell-timeout", value)) {
      opts.cell_timeout_sec = std::atof(value.c_str());
      if (opts.cell_timeout_sec <= 0) {
        std::fprintf(stderr, "%s: --cell-timeout wants seconds > 0, got '%s'\n",
                     argv[0], value.c_str());
        std::exit(2);
      }
    } else {
      argv[out++] = argv[i];  // leave for the caller (e.g. google-benchmark)
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return opts;
}

std::size_t cell_mem_weight(const ExperimentCell& cell) {
  // App construction is cheap (the working set is allocated in setup(),
  // inside the simulation), so building one just to read shared_bytes() is
  // fine even for a scheduling heuristic.
  const std::size_t shared = apps::make_app(cell.app, cell.scale)->shared_bytes();
  constexpr std::size_t kFixedOverhead = 64u * 1024 * 1024;
  return shared * static_cast<std::size_t>(cell.params.num_procs + 1) +
         kFixedOverhead;
}

std::size_t MemGate::acquire(std::size_t weight) {
  if (!enabled()) return 0;
  const std::size_t w = std::min(weight, cap_);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return used_ + w <= cap_; });
  used_ += w;
  return w;
}

std::size_t MemGate::try_acquire(std::size_t weight) {
  if (!enabled()) return 0;
  const std::size_t w = std::min(weight, cap_);
  std::lock_guard<std::mutex> lk(mu_);
  if (used_ + w > cap_) return 0;
  used_ += w;
  return w;
}

void MemGate::release(std::size_t reserved) {
  if (reserved == 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    AECDSM_CHECK(reserved <= used_);
    used_ -= reserved;
  }
  cv_.notify_all();
}

std::size_t MemGate::used() const {
  std::lock_guard<std::mutex> lk(mu_);
  return used_;
}

std::vector<std::size_t> lpt_schedule(std::vector<std::size_t> misses,
                                      const std::vector<std::string>& hashes,
                                      const TelemetryMap& telemetry) {
  if (telemetry.empty()) return misses;
  auto duration_of = [&](std::size_t i) -> std::uint64_t {
    const auto it = telemetry.find(hashes[i]);
    return it == telemetry.end() ? std::numeric_limits<std::uint64_t>::max()
                                 : it->second;
  };
  std::stable_sort(misses.begin(), misses.end(),
                   [&](std::size_t a, std::size_t b) {
                     return duration_of(a) > duration_of(b);
                   });
  return misses;
}

namespace {

/// Cell label as a filename: anything outside [A-Za-z0-9.-] becomes '_'
/// ("AEC/Water-SP" -> "AEC_Water-SP").
std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '.') {
      c = '_';
    }
  }
  return out;
}

trace::TraceMeta trace_meta_of(const ExperimentCell& cell) {
  trace::TraceMeta meta;
  meta.protocol = cell.protocol;
  meta.app = cell.app;
  meta.num_procs = cell.params.num_procs;
  meta.seed = static_cast<std::uint32_t>(cell.seed);
  meta.label = cell.label;
  return meta;
}

void write_json_file(const std::string& path, const json::Value& doc) {
  std::ofstream out(path);
  AECDSM_CHECK_MSG(out.good(), "cannot open trace output file: " << path);
  doc.write(out);
  out << "\n";
}

/// Emit the requested trace artifacts for every successfully traced cell:
/// one combined Chrome trace_event file (--trace, one Perfetto process per
/// cell) and/or per-cell aecdsm-trace-v1 + Chrome files (--trace-dir).
/// Timed-out / cancelled cells have no coherent timeline and are skipped.
void write_trace_files(const BatchOptions& opts, const ExperimentPlan& plan,
                       const std::vector<ExperimentResult>& results,
                       const std::vector<std::unique_ptr<trace::Recorder>>& recorders) {
  if (!opts.trace_dir.empty()) std::filesystem::create_directories(opts.trace_dir);
  json::Value combined_events = json::Value::array();
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    if (recorders[i] == nullptr || results[i].status != "ok") continue;
    const trace::Recorder& rec = *recorders[i];
    const trace::TraceMeta meta = trace_meta_of(plan.cells[i]);
    const int pid = static_cast<int>(i);
    if (!opts.trace_path.empty()) {
      trace::append_perfetto_events(combined_events, rec, meta, pid);
    }
    if (!opts.trace_dir.empty()) {
      const std::string base =
          (std::filesystem::path(opts.trace_dir) / sanitize_label(plan.cells[i].label))
              .string();
      json::Value doc = trace::trace_json(rec, meta);
      doc["overlap"] =
          trace::overlap_json(trace::analyze_overlap(rec), /*include_episodes=*/true);
      write_json_file(base + ".trace.json", doc);
      write_json_file(base + ".perfetto.json", trace::perfetto_json(rec, meta, pid));
    }
  }
  if (!opts.trace_path.empty()) {
    json::Value doc = json::Value::object();
    doc["displayTimeUnit"] = json::Value("ms");
    doc["traceEvents"] = std::move(combined_events);
    write_json_file(opts.trace_path, doc);
    std::fprintf(stderr, "[trace] %s: wrote combined Chrome trace %s\n",
                 plan.name.c_str(), opts.trace_path.c_str());
  }
  if (!opts.trace_dir.empty()) {
    std::fprintf(stderr, "[trace] %s: wrote per-cell traces under %s\n",
                 plan.name.c_str(), opts.trace_dir.c_str());
  }
}

}  // namespace

BatchRunner::BatchRunner(BatchOptions opts)
    : opts_(std::move(opts)), jobs_(ThreadPool::resolve_jobs(opts_.jobs)) {}

void BatchRunner::verify_warm_hit(const ExperimentCell& cell,
                                  const ExperimentResult& warm) const {
  const ExperimentResult cold =
      run_experiment(cell.protocol, cell.app, cell.scale, cell.params, cell.seed,
                     opts_.cell_timeout_sec, nullptr);
  const std::string warm_doc =
      to_json(warm.stats).dump() + "\n" + lap_json(warm).dump();
  const std::string cold_doc =
      to_json(cold.stats).dump() + "\n" + lap_json(cold).dump();
  AECDSM_CHECK_MSG(warm_doc == cold_doc,
                   "--verify-cache: warm hit for cell '"
                       << cell.label
                       << "' differs from a cold re-simulation — the cache "
                          "served a stale or colliding blob");
  std::fprintf(stderr, "[cache] verify: cell '%s' warm == cold\n",
               cell.label.c_str());
}

std::vector<ExperimentResult> BatchRunner::run(const ExperimentPlan& plan) {
  const std::size_t n = plan.cells.size();
  std::vector<ExperimentResult> results(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<char> executed(n, 0);
  info_ = BatchRunInfo{};
  info_.cells = n;

  // Tracing wants a timeline for every cell, which only a fresh simulation
  // produces — the cache is bypassed outright (no loads, no stores, no
  // telemetry) so trace runs can never pollute cached artifacts either.
  std::unique_ptr<CellCache> cache;
  if (!opts_.no_cache && !opts_.tracing()) {
    cache = std::make_unique<CellCache>(CellCache::resolve_dir(opts_.cache_dir));
  }
  std::vector<std::unique_ptr<trace::Recorder>> recorders(n);
  // Spilling recorders stream chunks during the run, so the directory must
  // exist before the first cell starts (write_trace_files re-creates it
  // harmlessly later).
  if (opts_.tracing() && !opts_.trace_dir.empty()) {
    std::filesystem::create_directories(opts_.trace_dir);
  }

  // Serve every memoized cell first; only the misses are simulated.
  std::vector<std::string> hashes(n);
  std::vector<std::size_t> misses;
  std::size_t first_hit = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (cache != nullptr) hashes[i] = CellCache::cell_hash(plan.cells[i]);
    if (cache != nullptr && !opts_.refresh) {
      if (auto hit = cache->load(plan.cells[i])) {
        results[i] = std::move(*hit);
        executed[i] = 1;
        ++info_.cache_hits;
        if (first_hit == n) first_hit = i;
        continue;
      }
    }
    misses.push_back(i);
  }

  if (opts_.verify_cache && first_hit < n) {
    verify_warm_hit(plan.cells[first_hit], results[first_hit]);
    ++info_.cache_verified;
  }

  if (cache != nullptr && misses.size() > 1) {
    misses = lpt_schedule(std::move(misses), hashes, cache->load_telemetry());
  }

  TelemetryMap fresh_telemetry;
  TelemetryMap fresh_events;
  std::mutex telemetry_mu;
  MemGate mem_gate(opts_.max_mem_mb * 1024 * 1024);
  {
    // Never spin up more workers than cells; the pool joins in its
    // destructor after wait_all() saw every cell finish.
    const int workers = std::max(static_cast<int>(misses.size()), 1);
    ThreadPool pool(std::min(jobs_, workers));
    for (const std::size_t i : misses) {
      pool.submit([&, i] {
        const ExperimentCell& cell = plan.cells[i];
        executed[i] = 1;
        const std::size_t reserved =
            mem_gate.enabled() ? mem_gate.acquire(cell_mem_weight(cell)) : 0;
        trace::Recorder* rec = nullptr;
        if (opts_.tracing()) {
          recorders[i] = std::make_unique<trace::Recorder>();
          // --trace-dir wants complete per-cell timelines: stream every
          // event to chunked JSONL so long runs outgrow the ring without
          // losing their head. --trace alone keeps the bounded ring only.
          if (!opts_.trace_dir.empty()) {
            recorders[i]->enable_spill(opts_.trace_dir,
                                       sanitize_label(cell.label));
          }
          rec = recorders[i].get();
        }
        const auto start = std::chrono::steady_clock::now();
        try {
          results[i] = run_experiment(cell.protocol, cell.app, cell.scale,
                                      cell.params, cell.seed,
                                      opts_.cell_timeout_sec, rec);
          if (rec != nullptr) {
            results[i].stats.overlap =
                trace::to_overlap_stats(trace::analyze_overlap(*rec));
          }
          const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          const std::uint64_t events = results[i].stats.engine_events;
          const std::uint64_t eps =
              (events > 0 && micros > 0)
                  ? events * 1000000u / static_cast<std::uint64_t>(micros)
                  : 0;
          if (eps > 0) {
            std::fprintf(stderr,
                         "[telemetry] %s: %llu events in %.3fs — %llu events/s\n",
                         cell.label.c_str(), static_cast<unsigned long long>(events),
                         static_cast<double>(micros) / 1e6,
                         static_cast<unsigned long long>(eps));
          }
          {
            std::lock_guard<std::mutex> lk(telemetry_mu);
            info_.engine_events += events;
            info_.sim_wall_us += static_cast<std::uint64_t>(micros);
          }
          if (cache != nullptr) {
            cache->store(cell, results[i]);
            std::lock_guard<std::mutex> lk(telemetry_mu);
            fresh_telemetry[hashes[i]] = static_cast<std::uint64_t>(micros);
            if (eps > 0) fresh_events[hashes[i]] = eps;
          }
        } catch (const TimeoutError& e) {
          // A stuck cell is a recorded outcome, not a batch failure: mark it
          // and move on (or cancel the rest under --fail-fast).
          results[i] = ExperimentResult{};
          results[i].status = "timeout";
          std::fprintf(stderr, "batch '%s': cell %zu (%s) %s\n",
                       plan.name.c_str(), i, cell.label.c_str(), e.what());
          if (opts_.fail_fast) pool.request_stop();
        } catch (...) {
          errors[i] = std::current_exception();
          // The exception is rethrown after the pool drains; until then the
          // status keeps trace export from treating this cell as finished.
          results[i].status = "failed";
          if (opts_.fail_fast) pool.request_stop();
        }
        mem_gate.release(reserved);
      });
    }
    pool.wait_all();
  }
  if (cache != nullptr) cache->merge_telemetry(fresh_telemetry, fresh_events);
  if (opts_.tracing()) write_trace_files(opts_, plan, results, recorders);

  for (std::size_t i = 0; i < n; ++i) {
    if (!executed[i]) {
      results[i].status = "skipped";
      ++info_.skipped;
    } else if (results[i].status == "timeout") {
      ++info_.timeouts;
    }
  }
  info_.simulated = n - info_.cache_hits - info_.skipped;
  if (info_.engine_events > 0 && info_.sim_wall_us > 0) {
    std::fprintf(stderr,
                 "[telemetry] %s: %llu engine events in %.3fs — %llu events/s "
                 "aggregate\n",
                 plan.name.c_str(),
                 static_cast<unsigned long long>(info_.engine_events),
                 static_cast<double>(info_.sim_wall_us) / 1e6,
                 static_cast<unsigned long long>(info_.engine_events * 1000000u /
                                                 info_.sim_wall_us));
  }
  if (cache != nullptr) {
    std::fprintf(stderr, "[cache] %s: hits=%zu simulated=%zu skipped=%zu dir=%s\n",
                 plan.name.c_str(), info_.cache_hits, info_.simulated, info_.skipped,
                 cache->dir().c_str());
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) {
      std::fprintf(stderr, "batch '%s': cell %zu (%s) failed%s\n", plan.name.c_str(),
                   i, plan.cells[i].label.c_str(),
                   info_.skipped > 0 ? " (remaining cells cancelled)" : "");
      std::rethrow_exception(errors[i]);
    }
  }
  return results;
}

json::Value BatchRunner::document(const ExperimentPlan& plan,
                                  const std::vector<ExperimentResult>& results) {
  AECDSM_CHECK(plan.cells.size() == results.size());
  json::Value doc = json::Value::object();
  doc["schema"] = json::Value("aecdsm-batch-v1");
  doc["plan"] = json::Value(plan.name);
  json::Value cells = json::Value::array();
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const ExperimentCell& cell = plan.cells[i];
    json::Value c = json::Value::object();
    c["label"] = json::Value(cell.label);
    c["protocol"] = json::Value(cell.protocol);
    c["app"] = json::Value(cell.app);
    c["scale"] = json::Value(cell.scale == apps::Scale::kSmall ? "small" : "default");
    c["seed"] = json::Value(cell.seed);
    c["params"] = to_json(cell.params);
    if (results[i].status != "ok") {
      // Timed-out / cancelled cells carry no meaningful measurements.
      c["status"] = json::Value(results[i].status);
      c["stats"] = json::Value();
      c["lap"] = json::Value();
    } else {
      c["stats"] = to_json(results[i].stats);
      c["lap"] = lap_json(results[i]);
    }
    cells.append(std::move(c));
  }
  doc["cells"] = std::move(cells);
  return doc;
}

void BatchRunner::write_json(const ExperimentPlan& plan, const json::Value& doc) const {
  if (opts_.json_path == "off") return;
  if (opts_.json_path == "-") {
    doc.write(std::cout);
    std::cout << "\n";
    return;
  }
  const std::string path =
      opts_.json_path.empty() ? plan.name + ".json" : opts_.json_path;
  std::ofstream out(path);
  AECDSM_CHECK_MSG(out.good(), "cannot open JSON output file: " << path);
  doc.write(out);
  out << "\n";
  std::fprintf(stderr, "[batch] %s: %zu cells, jobs=%d, wrote %s\n",
               plan.name.c_str(), plan.cells.size(), jobs_, path.c_str());
}

const ExperimentResult& BenchReport::result(const std::string& label) const {
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    if (plan.cells[i].label == label) return results[i];
  }
  AECDSM_CHECK_MSG(false, "no cell labelled '" << label << "' in plan " << plan.name);
}

int run_bench(int argc, char** argv, const ExperimentPlan& plan,
              const std::function<void(BenchReport&)>& report) {
  BatchOptions opts = parse_batch_cli(argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0], argv[i]);
    return 2;
  }
  try {
    BatchRunner runner(std::move(opts));
    const std::vector<ExperimentResult> results = runner.run(plan);
    json::Value doc = BatchRunner::document(plan, results);
    BenchReport rep{plan, results, doc};
    report(rep);
    runner.write_json(plan, doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return 0;
}

}  // namespace aecdsm::harness
