// Shared helpers for the test suite: a lambda-based App, small-machine
// parameter presets, and run helpers covering all three protocol suites.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "aec/suite.hpp"
#include "common/params.hpp"
#include "dsm/app.hpp"
#include "dsm/system.hpp"
#include "erc/protocol.hpp"
#include "harness/json_out.hpp"
#include "harness/runner.hpp"
#include "policy/instance.hpp"
#include "tmk/protocol.hpp"

namespace aecdsm::test {

/// Quick App built from lambdas. The body runs on every simulated
/// processor; `check` runs on the host after the simulation.
class LambdaApp : public dsm::App {
 public:
  LambdaApp(std::string name, std::size_t bytes,
            std::function<void(dsm::Machine&)> setup,
            std::function<void(dsm::Context&)> body)
      : name_(std::move(name)),
        bytes_(bytes),
        setup_(std::move(setup)),
        body_(std::move(body)) {}

  std::string name() const override { return name_; }
  std::size_t shared_bytes() const override { return bytes_; }
  void setup(dsm::Machine& m) override { setup_(m); }
  void body(dsm::Context& ctx) override { body_(ctx); }
  bool ok() const override { return ok_; }

  /// Bodies report their verdict here (typically pid 0 after a barrier).
  void set_ok(bool v) { ok_ = v; }

 private:
  std::string name_;
  std::size_t bytes_;
  std::function<void(dsm::Machine&)> setup_;
  std::function<void(dsm::Context&)> body_;
  bool ok_ = false;
};

/// Small machine for fast tests: 4 nodes, 256-byte pages.
inline SystemParams small_params(int nprocs = 4) {
  SystemParams p;
  p.num_procs = nprocs;
  p.mesh_width = nprocs >= 4 ? 2 : 1;
  while (nprocs % p.mesh_width != 0) ++p.mesh_width;
  if (nprocs >= 16) p.mesh_width = 4;
  p.page_bytes = 256;
  p.cache_bytes = 8 * 1024;
  return p;
}

inline dsm::ProtocolSuite aec_suite_for(aec::AecSuite& s) { return s.suite(); }

/// Run `app` under one suite and return the stats.
inline RunStats run_one(dsm::App& app, dsm::ProtocolSuite suite,
                        const SystemParams& params, std::uint64_t seed = 42) {
  dsm::RunConfig cfg;
  cfg.params = params;
  cfg.seed = seed;
  return dsm::run_app(app, suite, cfg);
}

/// Any registered policy, by name (legacy presets and hybrids alike).
inline RunStats run_protocol(dsm::App& app, const std::string& which,
                             const SystemParams& params, std::uint64_t seed = 42) {
  policy::ProtocolInstance inst = policy::make_instance(which);
  return run_one(app, inst.suite(), params, seed);
}

inline const char* kAllProtocols[] = {"AEC", "AEC-noLAP", "TreadMarks", "Munin-ERC"};

/// Full serialization of everything a cell produces — RunStats (every
/// field, via the canonical JSON encoder) plus the per-lock LAP scores of
/// every predictor column: the unit of the byte-identity contract.
inline std::string result_fingerprint(const harness::ExperimentResult& r) {
  std::ostringstream os;
  os << harness::to_json(r.stats).dump();
  for (const auto& [lock, s] : r.lap_scores) {
    os << "|" << lock << ":" << s.acquire_events << "," << s.lap.predictions
       << "," << s.lap.hits << "," << s.waitq.hits << ","
       << s.waitq_affinity.hits << "," << s.waitq_virtualq.hits;
  }
  return os.str();
}

/// 64-bit FNV-1a, for pinning fingerprints as short constants.
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace aecdsm::test
