// Reliable message transport over the (optionally lossy) mesh.
//
// When fault injection is disabled this layer is a strict pass-through to
// MeshNetwork::send — no extra events, no extra state, bit-identical
// behaviour to the pre-transport simulator. When a FaultPlane is active,
// reliable sends get per-directed-channel sequence numbers, receiver-side
// dedup plus in-order release (so protocols keep the per-channel FIFO
// ordering the lossless mesh gave them), per-copy acknowledgements, and
// exponential-backoff retransmission driven by engine timers. Retransmitted
// copies and acks traverse the mesh like any other message (Table-1 wire,
// switch and NIC costs, counted in MsgStats); retransmission itself is
// NIC-autonomous and charges no host CPU.
//
// Best-effort sends (AEC's LAP update pushes) take the fault decision but
// skip sequencing, acks and retransmission entirely: a dropped push is
// simply gone, and the protocol must degrade gracefully.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/params.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/mesh.hpp"
#include "sim/engine.hpp"

namespace aecdsm::trace {
class Recorder;
}

namespace aecdsm::net {

class Transport {
 public:
  /// Mesh cost charged for one acknowledgement (header-only message).
  static constexpr std::size_t kAckBytes = 16;

  Transport(sim::Engine& engine, MeshNetwork& mesh, const SystemParams& params);

  bool enabled() const { return plane_.enabled(); }
  FaultPlane& plane() { return plane_; }

  /// Reliable send: `deliver` runs exactly once at the destination, in
  /// per-channel send order, regardless of injected faults. Self-messages
  /// and the disabled transport go straight to the mesh.
  void send(ProcId src, ProcId dst, std::size_t bytes, sim::Engine::EventFn deliver);

  /// Best-effort send: the copy may be dropped, duplicated, delayed or
  /// reordered; the receiver's handler must tolerate all of that.
  void send_best_effort(ProcId src, ProcId dst, std::size_t bytes,
                        sim::Engine::EventFn deliver);

  /// Run-wide transport counters (protocols count push timeouts and
  /// fallbacks here too, with faults disabled or not).
  TransportStats& stats() { return stats_; }
  const TransportStats& stats() const { return stats_; }

  /// Attach (or detach, with nullptr) a trace sink recording send /
  /// retransmit / ack instants; purely observational.
  void set_recorder(trace::Recorder* rec) { recorder_ = rec; }

  // --- Crash plane ----------------------------------------------------------

  /// Run-wide crash/recovery counters (the transport counts crash drops and
  /// suspicions; protocols count failovers, re-elections and requeues).
  RecoveryStats& recovery() { return rstats_; }
  const RecoveryStats& recovery() const { return rstats_; }

  /// Install the suspect callback: invoked once per (source, crashed
  /// destination, crash window) when `suspect_after` unacknowledged copies
  /// have been sent to a destination that is actually crashed. Runs in the
  /// retransmit-timer context at the source node. Pure message loss never
  /// raises a suspicion — the failure detector is deterministic and perfect.
  void set_suspect_handler(std::function<void(ProcId src, ProcId dst)> h) {
    suspect_handler_ = std::move(h);
  }

 private:
  struct SendChannel {
    std::uint32_t next_seq = 0;
  };
  struct RecvChannel {
    std::uint32_t next_expected = 0;
    /// Arrived ahead of a gap; released in order once the gap fills.
    std::map<std::uint32_t, std::shared_ptr<sim::Engine::EventFn>> held;
  };
  struct Pending {
    ProcId src = kNoProc;
    ProcId dst = kNoProc;
    std::size_t bytes = 0;
    std::uint32_t seq = 0;
    int attempt = 0;  ///< copies injected so far minus one
    std::shared_ptr<sim::Engine::EventFn> deliver;
  };

  std::size_t channel(ProcId src, ProcId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nprocs_) +
           static_cast<std::size_t>(dst);
  }
  static std::uint64_t pending_key(std::size_t ch, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(ch) << 32) | seq;
  }

  /// Put one copy of a message on the mesh after a fault decision; `fn`
  /// must be pause- and dedup-checked by the closure itself.
  void inject_copy(ProcId src, ProcId dst, std::size_t bytes, sim::Engine::EventFn fn);

  void arm_timer(std::uint64_t key, int attempt);
  void timer_fire(std::uint64_t key, int attempt);
  void maybe_suspect(ProcId src, ProcId dst, Cycles now);
  void on_data_arrival(ProcId src, ProcId dst, std::uint32_t seq,
                       std::shared_ptr<sim::Engine::EventFn> fn);
  void send_ack(ProcId from, ProcId to, std::uint64_t key);

  sim::Engine& engine_;
  MeshNetwork& mesh_;
  FaultPlane plane_;
  int nprocs_;
  Cycles base_rto_;
  int backoff_cap_;

  std::vector<SendChannel> send_ch_;
  std::vector<RecvChannel> recv_ch_;
  /// Unacknowledged reliable messages by pending_key, until their ack lands.
  std::unordered_map<std::uint64_t, Pending> pending_;
  TransportStats stats_;
  RecoveryStats rstats_;
  /// Per-source memo of already-suspected (dst -> crash window end) pairs:
  /// the suspicion is the source's verdict about one directed channel, and
  /// one crash window raises at most one per channel.
  std::vector<std::unordered_map<ProcId, Cycles>> suspected_;
  std::function<void(ProcId, ProcId)> suspect_handler_;
  int suspect_after_;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace aecdsm::net
