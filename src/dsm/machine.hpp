// The simulated machine: engine + interconnect + one Node per processor.
// Protocols receive a reference to the whole Machine; since exactly one
// simulation activity runs at any instant, protocol handlers may touch any
// node's protocol state directly (the *timing* of remote effects is what
// the message fabric models).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/params.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/pagestore.hpp"
#include "net/mesh.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/processor.hpp"

namespace aecdsm::trace {
class Recorder;
}

namespace aecdsm::dsm {

class Protocol;
class Context;

/// Everything one simulated workstation owns.
struct Node {
  std::unique_ptr<sim::Processor> proc;
  std::unique_ptr<mem::PageStore> store;
  std::unique_ptr<mem::CacheModel> cache;
  std::unique_ptr<mem::TlbModel> tlb;
  std::unique_ptr<mem::WriteBuffer> wb;
  std::unique_ptr<Protocol> protocol;
  std::unique_ptr<Context> ctx;
  FaultStats faults;
};

class Machine {
 public:
  Machine(const SystemParams& params, std::size_t max_shared_bytes);
  ~Machine();

  const SystemParams& params() const { return params_; }
  sim::Engine& engine() { return engine_; }
  net::MeshNetwork& network() { return net_; }
  net::Transport& transport() { return transport_; }
  const net::Transport& transport() const { return transport_; }

  int nprocs() const { return params_.num_procs; }
  Node& node(ProcId p) { return nodes_[static_cast<std::size_t>(p)]; }
  const Node& node(ProcId p) const { return nodes_[static_cast<std::size_t>(p)]; }

  std::size_t num_pages() const { return num_pages_; }

  /// Page-aligned bump allocation in the global shared address space.
  /// Must be called before the run starts (all nodes see the same layout).
  GAddr alloc_shared(std::size_t bytes);

  /// Total bytes allocated so far.
  std::size_t shared_bytes_used() const { return alloc_cursor_; }

  // --- Message fabric -------------------------------------------------------
  //
  // Send a protocol message. At arrival the destination node is occupied for
  // `service_cost` cycles (plus an interrupt), accounted to its ipc bucket;
  // `handler` then runs engine-side at the service completion time. Rides
  // the reliable transport: under fault injection the message is delivered
  // exactly once, in per-channel order, via retransmission if needed.
  // The *sender-side* software overhead (params.message_overhead) must be
  // charged by the caller: application threads charge it via advance();
  // engine-side handlers fold it into their own service_cost.
  void post(ProcId from, ProcId to, std::size_t bytes, Cycles service_cost,
            std::function<void()> handler);

  /// Like post(), but best-effort: under fault injection the message may be
  /// dropped, duplicated, delayed or reordered, and is neither acknowledged
  /// nor retransmitted. Used for AEC's LAP update pushes, which the protocol
  /// can recover from lazily (section 3.4).
  void post_best_effort(ProcId from, ProcId to, std::size_t bytes,
                        Cycles service_cost, std::function<void()> handler);

  /// Home node of a lock's manager: static distribution (as in TreadMarks)
  /// unless a crash failover re-elected a surviving manager for the lock.
  ProcId lock_manager(LockId lock) const {
    if (!mgr_override_.empty()) {
      const auto it = mgr_override_.find(lock);
      if (it != mgr_override_.end()) return it->second;
    }
    return static_cast<ProcId>(lock % static_cast<LockId>(params_.num_procs));
  }

  /// Re-point a lock's manager after failover.
  void set_lock_manager_override(LockId lock, ProcId mgr) {
    mgr_override_[lock] = mgr;
  }

  /// Node hosting the barrier manager.
  ProcId barrier_manager() const { return 0; }

  // --- Tracing --------------------------------------------------------------

  /// Attach (or detach, with nullptr) a trace sink for the whole machine:
  /// every processor, the transport, and all protocol/context hook points
  /// observe through this pointer. Purely observational — attaching a
  /// recorder never perturbs simulated timing.
  void set_recorder(trace::Recorder* rec);
  trace::Recorder* recorder() const { return recorder_; }

  // --- Run-wide synchronization accounting (fed by Context) ----------------
  void note_lock_acquire(LockId lock) {
    seen_locks_.insert(lock);
    ++lock_acquires_;
  }
  void note_barrier_episode() { ++barrier_episodes_; }
  std::uint64_t lock_acquires() const { return lock_acquires_; }
  std::uint64_t distinct_locks() const { return seen_locks_.size(); }
  std::uint64_t barrier_episodes() const { return barrier_episodes_; }

 private:
  SystemParams params_;
  sim::Engine engine_;
  net::MeshNetwork net_;
  net::Transport transport_;
  std::vector<Node> nodes_;
  std::size_t num_pages_;
  std::size_t alloc_cursor_ = 0;

  trace::Recorder* recorder_ = nullptr;

  std::uint64_t lock_acquires_ = 0;
  std::set<LockId> seen_locks_;
  std::uint64_t barrier_episodes_ = 0;

  /// Crash-failover manager re-elections (empty unless a manager crashed).
  std::unordered_map<LockId, ProcId> mgr_override_;
};

}  // namespace aecdsm::dsm
