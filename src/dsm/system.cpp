#include "dsm/system.hpp"

#include <chrono>
#include <sstream>

#include "common/check.hpp"
#include "dsm/context.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::dsm {

void init_round_robin_validity(Machine& m, ProcId self) {
  const int n = m.nprocs();
  for (PageId pg = 0; pg < m.num_pages(); ++pg) {
    if (static_cast<ProcId>(pg % static_cast<PageId>(n)) == self) {
      m.node(self).store->frame(pg).valid = true;
    }
  }
}

RunStats run_app(App& app, const ProtocolSuite& suite, const RunConfig& config) {
  Machine m(config.params, app.shared_bytes());
  if (config.recorder != nullptr) m.set_recorder(config.recorder);
  app.setup(m);

  for (int p = 0; p < m.nprocs(); ++p) {
    Node& node = m.node(p);
    node.protocol = suite.make(m, p);
    node.ctx = std::make_unique<Context>(m, p, config.seed);
  }
  if (config.params.faults.crash_scheduled()) {
    // Wire the fail-stop crash plane: application-thread resumes gate on the
    // node's crash windows, and retransmit exhaustion toward a crashed node
    // raises the protocol's suspect hook. None of this exists in crash-free
    // runs, which stay byte-identical to builds without the crash plane.
    net::Transport& tr = m.transport();
    net::FaultPlane& plane = tr.plane();
    for (int p = 0; p < m.nprocs(); ++p) {
      m.node(p).proc->set_crash_hold([&plane, p](Cycles t) -> Cycles {
        return plane.crashed(p, t) ? plane.crash_end(p, t) : 0;
      });
    }
    tr.set_suspect_handler([&m](ProcId src, ProcId dst) {
      m.node(src).protocol->on_peer_suspect(dst);
    });
    // Warm reboot: at each window's end the node replays its in-flight
    // manager traffic (replies addressed to it during the window died at
    // its NIC and were cancelled by the sender's suspect verdict).
    for (const FaultWindow& w : config.params.faults.crashes) {
      if (w.node == kNoProc || w.cycles == 0) continue;
      m.engine().schedule(w.end(), [&m, node = w.node] {
        m.node(node).protocol->on_recover();
      });
    }
    if (config.recorder != nullptr) {
      // The crash schedule is known up front; stamp its instants directly
      // (recording never schedules events or perturbs timing).
      for (const FaultWindow& w : config.params.faults.crashes) {
        if (w.node == kNoProc || w.cycles == 0) continue;
        config.recorder->instant(w.node, trace::Category::kNet,
                                 trace::names::kNodeCrash, w.at_cycle);
        config.recorder->instant(w.node, trace::Category::kNet,
                                 trace::names::kNodeRecover, w.end());
      }
    }
  }
  for (int p = 0; p < m.nprocs(); ++p) {
    Node& node = m.node(p);
    node.proc->start([&app, &node] { app.body(*node.ctx); });
  }

  if (config.wall_timeout_sec > 0.0) {
    m.engine().set_wall_deadline(
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(
            static_cast<std::int64_t>(config.wall_timeout_sec * 1e6)));
  }
  m.engine().run();

  // An empty event queue with unfinished processors is a protocol deadlock.
  std::ostringstream stuck;
  bool all_done = true;
  for (int p = 0; p < m.nprocs(); ++p) {
    if (!m.node(p).proc->finished()) {
      all_done = false;
      stuck << " p" << p << (m.node(p).proc->blocked() ? "(blocked)" : "(runnable)");
    }
  }
  AECDSM_CHECK_MSG(all_done, "simulation deadlock under " << suite.name << "/"
                                                          << app.name() << ":" << stuck.str());

  RunStats out;
  out.protocol = suite.name;
  out.app = app.name();
  out.num_procs = m.nprocs();
  out.per_proc.reserve(static_cast<std::size_t>(m.nprocs()));
  for (int p = 0; p < m.nprocs(); ++p) {
    const Node& node = m.node(p);
    out.per_proc.push_back(node.proc->acct());
    out.finish_time = std::max(out.finish_time, node.proc->finish_time());
    out.faults += node.faults;
    out.diffs += node.protocol->diff_stats();
    out.lockmgr += node.protocol->lockmgr_stats();
  }
  out.msgs = m.network().stats();
  out.transport = m.transport().stats();
  out.recovery = m.transport().recovery();
  out.sync.lock_acquires = m.lock_acquires();
  out.sync.distinct_locks = m.distinct_locks();
  out.sync.barrier_events = m.barrier_episodes();
  out.engine_events = m.engine().events_processed();
  out.result_valid = app.ok();
  return out;
}

}  // namespace aecdsm::dsm
