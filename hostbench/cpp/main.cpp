// hostbench: host-time benchmark of the simulator. Runs one workload for a
// time budget and prints its metrics; see hostbench/README.md. Normally
// driven by hostbench/run.py, which builds this binary and times set-up
// from before the process starts.
//
//   hostbench --workload paper_sweep|lock256|warm_replay --seed N
//             --seconds S --trace 0|1 [--repo DIR] [--work DIR]
//             [--commit TEXT] [--setup-only] [--time-limit SEC]
//   hostbench --write-fingerprints FILE [--repo DIR]
//
// The report goes to standard output and ends with one JSON line; the
// bench reports that warm_replay rebuilds print into /dev/null.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  SetupOptions setup;
  double seconds = 10;
  double time_limit = kDefaultTimeLimitSec;
  bool trace = false;
  bool setup_only = false;
  std::string commit = "unknown";
  std::string fingerprints_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload paper_sweep|lock256|warm_replay "
               "--seed N --seconds S --trace 0|1 [--repo DIR] [--work DIR] [--commit TEXT] "
               "[--setup-only] [--time-limit SEC]\n"
               "       hostbench --write-fingerprints FILE [--repo DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  o.setup.repo = ".";
  o.setup.work_dir = ".hostbench";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.setup.workload = value();
      } else if (a == "--seed") {
        o.setup.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--repo") {
        o.setup.repo = value();
      } else if (a == "--work") {
        o.setup.work_dir = value();
      } else if (a == "--commit") {
        o.commit = value();
      } else if (a == "--time-limit") {
        o.time_limit = std::stod(value());
      } else if (a == "--setup-only") {
        o.setup_only = true;
      } else if (a == "--write-fingerprints") {
        o.fingerprints_out = value();
      } else {
        usage("unknown argument '" + a + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.fingerprints_out.empty() && o.setup.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (!(o.time_limit > 0)) usage("--time-limit must be positive");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Host seconds of one pass at the commit that defined the benchmark, on a
/// 4-vCPU Xeon VM, each cell pinned to one vCPU. A run makes
/// round(--seconds / this) passes, so equal budgets mean equal work on
/// every commit.
double nominal_pass_seconds(const std::string& workload) {
  if (workload == kPaperSweep) return 9.0;
  if (workload == kLock256) return 14.0;
  return 0.06;  // warm_replay
}

/// Probe shape of a workload: the node count, page size, lock strategies
/// and lock queue depth its cells run with.
ProbeShape shape_of(const Options& o, const Counts& c) {
  ProbeShape s;
  s.seed = o.setup.seed;
  if (o.setup.workload == kLock256) {
    s.nodes = 256;
    s.page_bytes = 256;
    s.strategies = {"central", "mcs", "hier"};
  }
  const double depth = ratio(c.queue_depth_sum, c.grants);
  s.queue_depth = depth >= 1 ? static_cast<std::size_t>(std::lround(depth))
                             : static_cast<std::size_t>(s.nodes / 2);
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct AttributionRow {
  std::string layer;
  double count;
  double unit_s;  ///< host seconds per counted operation
};

void print_metrics(std::FILE* out, const char* title, const std::vector<Metric>& ms) {
  std::fprintf(out, "%s\n", title);
  for (const Metric& m : ms) {
    std::fprintf(out, "  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

int run(const Options& o, std::FILE* out) {
  fs::create_directories(o.setup.work_dir);
  if (!o.fingerprints_out.empty()) {
    write_fingerprints(o.setup, o.fingerprints_out);
    std::fprintf(out, "wrote %s\n", o.fingerprints_out.c_str());
    return 0;
  }

  const std::int64_t t_process = now_ns();
  tracer().enabled = o.trace;
  Plan plan = set_up(o.setup);
  plan.deadline_ns = t_process + static_cast<std::int64_t>(o.time_limit * 1e9);
  const std::int64_t setup_end_ns = now_ns();
  tracer().enabled = false;
  struct CacheDirCleanup {
    const Plan& plan;
    ~CacheDirCleanup() {
      std::error_code ec;
      if (plan.cache) fs::remove_all(plan.cache->dir(), ec);
    }
  } cleanup{plan};
  if (o.setup_only) {
    std::fprintf(out, "{\"setup_end_ns\": %lld}\n", static_cast<long long>(setup_end_ns));
    return 0;
  }

  // The pass count depends only on --seconds and --time-limit, never on
  // measured times: a stop-when-the-next-pass-would-overrun rule keeps a
  // run's slow first pass alone and averages a fast one with the next,
  // which splits runs into two modes. The nominal time of the planned
  // passes fits the time limit; a host too slow for them stops at the
  // limit, and its unfinished pass is left out. A traced run alternates
  // untraced and traced passes and makes at least one of each.
  const double nominal = nominal_pass_seconds(plan.workload);
  const std::uint64_t min_passes = o.trace ? 2 : 1;
  const auto by_budget = static_cast<std::uint64_t>(std::llround(o.seconds / nominal));
  const auto by_limit = static_cast<std::uint64_t>(o.time_limit / nominal);
  const std::uint64_t planned = std::max(min_passes, std::min(by_budget, by_limit));
  std::vector<PassResult> plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<CellOutput> kept;
  bool cut = false;
  // Peak RSS through set-up and the first pass, as a one-shot run sees it:
  // later passes reuse a heap that earlier ones left fragmented, which made
  // the process-lifetime peak vary between identical runs.
  double rss_mb = 0;
  for (std::uint64_t k = 0; k < planned; ++k) {
    const bool traced_pass = o.trace && k % 2 == 1;
    tracer().enabled = traced_pass;
    PassResult pr = run_pass(plan, o.setup.seed * 0x9E3779B97F4A7C15ULL + k,
                             /*keep_outputs=*/o.trace && k == 0);
    tracer().enabled = false;
    attempted += pr.attempted;
    failed += pr.failed;
    failures.insert(failures.end(), pr.failures.begin(), pr.failures.end());
    if (pr.cut) {
      cut = true;
      break;
    }
    if (k == 0) {
      kept = std::move(pr.outputs);
      rss_mb = peak_rss_mb();
    }
    (traced_pass ? traced : plain).push_back(std::move(pr));
    if (failed > 0 && k >= 1) break;  // a broken build gets no more passes
    if (now_ns() >= plan.deadline_ns) break;  // a warm pass does not watch the limit
  }
  if (plain.empty() || (o.trace && traced.empty())) {
    char limit[32];
    std::snprintf(limit, sizeof(limit), "%g", o.time_limit);
    throw std::runtime_error(std::string("the time limit of ") + limit +
                             " s ended the run before a full pass" +
                             (o.trace ? " of each kind" : ""));
  }

  const Counts& c = plain.front().counts;
  auto med = [&](const std::vector<PassResult>& ps, double PassResult::*field) {
    std::vector<double> v;
    for (const PassResult& p : ps) v.push_back(p.*field);
    return median(std::move(v));
  };
  const double wall = med(plain, &PassResult::wall_s);

  std::fprintf(out, "hostbench %s seed=%llu trace=%d\n", o.setup.workload.c_str(),
               static_cast<unsigned long long>(o.setup.seed), o.trace ? 1 : 0);
  std::fprintf(out,
               "context: nproc=%ld cpu_model=\"%s\" compiler=\"%s\" build_type=%s "
               "cpu_set=%s (one at a time, in turn) commit=\"%s\"\n",
               sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), HOSTBENCH_COMPILER,
               HOSTBENCH_BUILD_TYPE, cpu_list(plan.cpus.cpus).c_str(), o.commit.c_str());
  std::fprintf(out,
               "passes: %zu untraced, %zu traced of %llu planned%s; cells per pass %zu; "
               "attempted %llu, failed %llu\n",
               plain.size(), traced.size(), static_cast<unsigned long long>(planned),
               by_budget > by_limit ? " (fewer than --seconds asks: the time limit)" : "",
               plan.cells.size(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  if (cut) std::fprintf(out, "the time limit cut a pass short; it is left out\n");
  {
    std::vector<double> walls;
    for (const PassResult& p : plain) walls.push_back(p.wall_s);
    std::sort(walls.begin(), walls.end());
    // The highest percentile with at least ten samples above it, if any.
    const std::size_t n = walls.size();
    std::fprintf(out, "untraced pass wall_s: n=%zu min %.5f median %.5f ", n, walls.front(),
                 median(walls));
    if (n > 10) {
      std::fprintf(out, "p%.1f %.5f (10 passes above)\n",
                   100.0 * static_cast<double>(n - 10) / static_cast<double>(n), walls[n - 11]);
    } else {
      std::fprintf(out, "max %.5f\n", walls.back());
    }
  }
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::fprintf(out, "  FAILED %s\n", failures[i].c_str());
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"wall_s", wall, "s"},
        {"events_per_s", med(plain, &PassResult::events_per_s), "1/s"},
        {"cpu_s", med(plain, &PassResult::cpu_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_cycles", static_cast<double>(c.sim_cycles), "cycles"},
    };
    print_metrics(out, "end-to-end (median over untraced passes):", metrics);
    std::fprintf(out, "  %-26s %16.6g %s\n", "fail_ratio", ratio(failed, attempted), "ratio");
  } else {
    // Per-layer numbers: counts of one pass, rusage medians of the untraced
    // passes, span times of the traced ones, unit costs from the probes.
    const Tracer& t = tracer();
    const double traced_passes = static_cast<double>(traced.size());
    const double traced_cells = static_cast<double>(traced.front().counts.cells) * traced_passes;
    const double build_s =
        t.total_seconds("apps::make_app") + t.total_seconds("policy::make_instance");
    const std::map<std::string, double> self = t.self_seconds();
    auto proto_s = [&](const std::string& p) {
      const auto it = self.find("proto." + p);
      return it == self.end() ? 0.0 : it->second / traced_passes;
    };

    Plan paper_for_probes;
    const Plan* paper = &plan;
    if (plan.workload == kLock256) {
      SetupOptions po = o.setup;
      po.workload = kPaperSweep;
      paper_for_probes = set_up(po);
      paper = &paper_for_probes;
    }
    const std::vector<CellOutput> probe_cells =
        plan.workload == kLock256 ? kept : baseline_outputs(*paper);
    const UnitCosts u = run_probes(shape_of(o, c), *paper, probe_cells, o.setup.work_dir);

    // Attribution: count x unit cost per layer against the pass wall time.
    const bool warm = plan.workload == kWarmReplay;
    const double cells = static_cast<double>(c.cells);
    const std::vector<AttributionRow> rows = {
        {"sim.dispatch", static_cast<double>(c.events), u.dispatch_ns * 1e-9},
        {"sim.switch", med(plain, &PassResult::ctx_switches),
         u.switch_ns / std::max(1.0, u.switch_ctx_per_trip) * 1e-9},
        {"sim.spawn", static_cast<double>(c.threads), u.spawn_us * 1e-6},
        {"net.mesh_send", static_cast<double>(c.messages), u.mesh_send_ns * 1e-9},
        {"mem.diff_create", static_cast<double>(c.diffs_created), u.diff_create_ns * 1e-9},
        {"mem.diff_apply", static_cast<double>(c.diffs_applied), u.diff_apply_ns * 1e-9},
        {"mem.diff_merge", static_cast<double>(c.diffs_merged), u.diff_merge_ns * 1e-9},
        {"dsm.app_build", warm ? 0.0 : cells, traced_cells > 0 ? build_s / traced_cells : 0.0},
        {"policy.lap_update", static_cast<double>(c.lap_predictions), u.lap_update_ns * 1e-9},
        {"locks.pick_waiter", static_cast<double>(c.lock_acquires), u.pick_waiter_ns * 1e-9},
        {"harness.cell_io", cells, (warm ? u.cache_load_ms : u.cache_store_ms) * 1e-3},
        {"harness.reports", warm ? 1.0 : 0.0,
         (u.report_ms + u.json_dump_ms + u.artifact_diff_ms) * 1e-3},
    };
    double attributed = 0;
    std::fprintf(out, "attribution (one untraced pass, wall %.4f s):\n", wall);
    std::fprintf(out, "  %-20s %14s %14s %12s %8s\n", "layer", "count", "unit", "cost_s", "share");
    for (const AttributionRow& r : rows) {
      const double cost = r.count * r.unit_s;
      attributed += cost;
      std::fprintf(out, "  %-20s %14.0f %12.4gus %12.5f %7.2f%%\n", r.layer.c_str(), r.count,
                   r.unit_s * 1e6, cost, 100.0 * cost / wall);
    }
    const double gap = 1.0 - attributed / wall;
    std::fprintf(out, "  %-20s %14s %14s %12.5f %7.2f%%\n", "unattributed", "", "",
                 wall - attributed, 100.0 * gap);
    const double overhead = med(traced, &PassResult::wall_s) / wall - 1.0;

    metrics = {
        {"sim.events", static_cast<double>(c.events), "count"},
        {"sim.ctx_switches", med(plain, &PassResult::ctx_switches), "count"},
        {"sim.sys_s", med(plain, &PassResult::sys_s), "s"},
        {"sim.switch_ns", u.switch_ns, "ns"},
        {"sim.spawn_us", u.spawn_us, "us"},
        {"sim.dispatch_ns", u.dispatch_ns, "ns"},
        {"net.messages", static_cast<double>(c.messages), "count"},
        {"net.bytes", static_cast<double>(c.bytes), "count"},
        {"net.mesh_send_ns", u.mesh_send_ns, "ns"},
        {"mem.diffs_created", static_cast<double>(c.diffs_created), "count"},
        {"mem.diffs_applied", static_cast<double>(c.diffs_applied), "count"},
        {"mem.diff_bytes", static_cast<double>(c.diff_bytes), "count"},
        {"mem.diff_create_ns", u.diff_create_ns, "ns"},
        {"mem.diff_apply_ns", u.diff_apply_ns, "ns"},
        {"mem.diff_merge_ns", u.diff_merge_ns, "ns"},
        {"dsm.faults", static_cast<double>(c.faults), "count"},
        {"dsm.app_build_ms", traced_cells > 0 ? build_s / traced_cells * 1e3 : 0.0, "ms"},
        {"policy.lap_hit_ratio", ratio(c.lap_hits, c.lap_predictions), "ratio"},
        {"policy.lap_update_ns", u.lap_update_ns, "ns"},
        {"locks.grants", static_cast<double>(c.grants), "count"},
        {"locks.direct_ratio", ratio(c.direct_handoffs, c.handoffs), "ratio"},
        {"locks.fallback_ratio", ratio(c.fallbacks, c.direct_handoffs + c.fallbacks), "ratio"},
        {"locks.queue_depth_mean", ratio(c.queue_depth_sum, c.grants), "count"},
        {"locks.pick_waiter_ns", u.pick_waiter_ns, "ns"},
        {"proto.AEC.cell_s", proto_s("AEC"), "s"},
        {"proto.AEC-noLAP.cell_s", proto_s("AEC-noLAP"), "s"},
        {"proto.TreadMarks.cell_s", proto_s("TreadMarks"), "s"},
        {"proto.Munin-ERC.cell_s", proto_s("Munin-ERC"), "s"},
        {"harness.cache_load_ms", u.cache_load_ms, "ms"},
        {"harness.cache_store_ms", u.cache_store_ms, "ms"},
        {"harness.json_dump_ms", u.json_dump_ms, "ms"},
        {"harness.json_parse_ms", u.json_parse_ms, "ms"},
        {"harness.artifact_diff_ms", u.artifact_diff_ms, "ms"},
        {"harness.report_ms", u.report_ms, "ms"},
        {"gap.unattributed_frac", gap, "frac"},
        {"trace.overhead_frac", overhead, "frac"},
    };
    print_metrics(out, "per-layer:", metrics);
    std::fprintf(out, "span self time per layer (set-up and traced passes, s per traced pass):\n");
    for (const auto& [layer, sec] : self) {
      std::fprintf(out, "  %-26s %12.5f\n", layer.c_str(), sec / traced_passes);
    }
    const std::string path = (fs::path(o.setup.work_dir) /
                              ("trace-" + o.setup.workload + "-seed" +
                               std::to_string(o.setup.seed) + ".json"))
                                 .string();
    t.write_chrome(path, o.setup.workload);
    std::fprintf(out, "spans: %zu written to %s\n", t.spans().size(), path.c_str());
  }

  std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
               failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), json_metrics(metrics).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  const hostbench::Options opts = hostbench::parse_args(argc, argv);
  // Keep the real stdout for the report; the bench reports print their
  // tables to stdout, which goes to /dev/null.
  std::fflush(stdout);
  const int report_fd = dup(STDOUT_FILENO);
  const int devnull = open("/dev/null", O_WRONLY);
  if (report_fd < 0 || devnull < 0 || dup2(devnull, STDOUT_FILENO) < 0) {
    std::perror("hostbench: redirecting stdout");
    return 2;
  }
  close(devnull);
  std::FILE* out = fdopen(report_fd, "w");
  try {
    const int rc = hostbench::run(opts, out);
    std::fflush(out);
    return rc;
  } catch (const std::exception& e) {
    std::fflush(out);
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
