// Wormhole-routed 2-D mesh interconnect with link and NIC contention.
//
// Reproduces the network of the paper's simulated testbed (Table 1): 16-bit
// bidirectional paths, 4-cycle switch latency, 2-cycle wire latency,
// wormhole (pipelined) transmission, with contention modeled at the source,
// the destination and every traversed link.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/params.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace aecdsm::net {

class MeshNetwork {
 public:
  MeshNetwork(sim::Engine& engine, const SystemParams& params);

  /// Transmit `bytes` of payload from `src` to `dst`; `deliver` runs as an
  /// engine event at the arrival time. The sender's software messaging
  /// overhead (Table 1: 400 cycles) is charged by the caller on the sending
  /// processor — this method models NIC injection, the wire, and ejection.
  ///
  /// A message to self bypasses the mesh and delivers immediately.
  void send(ProcId src, ProcId dst, std::size_t bytes, sim::Engine::EventFn deliver);

  /// Number of mesh hops between two nodes under XY routing (tests).
  int hop_count(ProcId src, ProcId dst) const;

  /// End-to-end latency of an uncontended message of `bytes` (tests and
  /// analytical sanity checks).
  Cycles uncontended_latency(ProcId src, ProcId dst, std::size_t bytes) const;

  const MsgStats& stats() const { return stats_; }

 private:
  struct Coord {
    int x, y;
  };

  Coord coord_of(ProcId p) const;
  ProcId node_at(Coord c) const;

  /// Directed link leaving `from` towards adjacent `to`.
  std::size_t link_index(ProcId from, ProcId to) const;

  /// XY route as the node sequence src..dst (inclusive).
  std::vector<ProcId> route(ProcId src, ProcId dst) const;

  /// NIC injection + wormhole traversal + ejection starting at `t0`;
  /// occupies the NIC and every traversed link. Returns the delivery time.
  Cycles route_and_occupy(ProcId src, ProcId dst, std::size_t bytes, Cycles t0);

  sim::Engine& engine_;
  const SystemParams& params_;
  std::vector<Cycles> link_busy_;  ///< per directed link: busy-until time
  std::vector<Cycles> nic_busy_;   ///< per node: NIC injection busy-until
  MsgStats stats_;
};

}  // namespace aecdsm::net
