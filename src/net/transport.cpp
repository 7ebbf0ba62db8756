#include "net/transport.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::net {

namespace {

/// Fixed injection offset of a duplicated copy, so the twin lands shortly
/// after (or, under jitter, before) the original instead of in the same
/// mesh transaction.
constexpr Cycles kDuplicateOffset = 64;

}  // namespace

Transport::Transport(sim::Engine& engine, MeshNetwork& mesh,
                     const SystemParams& params)
    : engine_(engine),
      mesh_(mesh),
      plane_(params),
      nprocs_(params.num_procs),
      base_rto_(params.faults.retransmit_timeout_cycles),
      backoff_cap_(params.faults.retransmit_backoff_cap),
      suspect_after_(params.faults.suspect_after) {
  if (plane_.enabled()) {
    const std::size_t channels = static_cast<std::size_t>(nprocs_) *
                                 static_cast<std::size_t>(nprocs_);
    send_ch_.resize(channels);
    recv_ch_.resize(channels);
    suspected_.resize(static_cast<std::size_t>(nprocs_));
  }
}

void Transport::inject_copy(ProcId src, ProcId dst, std::size_t bytes,
                            sim::Engine::EventFn fn) {
  const FaultPlane::Decision d = plane_.decide(src, dst);
  if (d.delayed) ++stats_.delays_injected;
  if (d.reordered) ++stats_.reorders_injected;
  if (d.drop) {
    ++stats_.drops_injected;
    return;
  }
  auto emit = [this, src, dst, bytes](Cycles extra, sim::Engine::EventFn deliver) {
    if (extra == 0) {
      mesh_.send(src, dst, bytes, std::move(deliver));
    } else {
      engine_.schedule(engine_.now() + extra,
                       [this, src, dst, bytes, h = std::move(deliver)]() mutable {
                         mesh_.send(src, dst, bytes, std::move(h));
                       });
    }
  };
  if (d.duplicate) {
    // The twin is injected verbatim at a fixed offset — it takes no further
    // fault decision, so duplication cannot cascade.
    ++stats_.dups_injected;
    emit(d.extra_delay + kDuplicateOffset, fn);
  }
  emit(d.extra_delay, std::move(fn));
}

void Transport::send(ProcId src, ProcId dst, std::size_t bytes,
                     sim::Engine::EventFn deliver) {
  if (recorder_ != nullptr) {
    recorder_->instant(src, trace::Category::kNet, trace::names::kNetSend,
                       engine_.now(), "dst", static_cast<std::uint64_t>(dst),
                       "bytes", bytes);
  }
  if (!plane_.enabled() || src == dst) {
    mesh_.send(src, dst, bytes, std::move(deliver));
    return;
  }
  ++stats_.data_sends;
  const std::size_t ch = channel(src, dst);
  const std::uint32_t seq = send_ch_[ch].next_seq++;
  const std::uint64_t key = pending_key(ch, seq);
  auto fn = std::make_shared<sim::Engine::EventFn>(std::move(deliver));

  Pending p;
  p.src = src;
  p.dst = dst;
  p.bytes = bytes;
  p.seq = seq;
  p.deliver = fn;
  pending_.emplace(key, std::move(p));

  inject_copy(src, dst, bytes, [this, src, dst, seq, fn] {
    on_data_arrival(src, dst, seq, fn);
  });
  arm_timer(key, 0);
}

void Transport::arm_timer(std::uint64_t key, int attempt) {
  const int shift = std::min(attempt, backoff_cap_);
  const Cycles rto = base_rto_ << shift;
  engine_.schedule(engine_.now() + rto,
                   [this, key, attempt] { timer_fire(key, attempt); });
}

void Transport::timer_fire(std::uint64_t key, int attempt) {
  const auto it = pending_.find(key);
  // Acked (erased) or already retransmitted by a newer timer: stale timer.
  if (it == pending_.end() || it->second.attempt != attempt) return;
  Pending& p = it->second;
  const Cycles now = engine_.now();
  if (plane_.crashed(p.src, now)) {
    // A crashed NIC cannot retransmit: re-check at the window end without
    // consuming an attempt or counting a timeout.
    engine_.schedule(plane_.crash_end(p.src, now),
                     [this, key, attempt] { timer_fire(key, attempt); });
    return;
  }
  if (suspect_handler_ && attempt + 1 >= suspect_after_ &&
      plane_.crashed(p.dst, now)) {
    // Enough unacknowledged copies to a destination that really is crashed:
    // raise the suspect verdict (once per window), but keep retransmitting —
    // the payload must still deliver after recovery.
    maybe_suspect(p.src, p.dst, now);
  }
  ++stats_.timeouts;
  ++stats_.retransmits;
  if (recorder_ != nullptr) {
    recorder_->instant(p.src, trace::Category::kNet, trace::names::kNetRetx,
                       engine_.now(), "dst",
                       static_cast<std::uint64_t>(p.dst), "attempt",
                       static_cast<std::uint64_t>(attempt + 1));
  }
  p.attempt = attempt + 1;
  const ProcId src = p.src;
  const ProcId dst = p.dst;
  const std::uint32_t seq = p.seq;
  auto fn = p.deliver;
  inject_copy(src, dst, p.bytes, [this, src, dst, seq, fn] {
    on_data_arrival(src, dst, seq, fn);
  });
  arm_timer(key, attempt + 1);
}

void Transport::maybe_suspect(ProcId src, ProcId dst, Cycles now) {
  const Cycles window_end = plane_.crash_end(dst, now);
  auto& memo = suspected_[static_cast<std::size_t>(src)];
  const auto [it, inserted] = memo.try_emplace(dst, window_end);
  if (inserted || it->second != window_end) {
    // First verdict for this window: count it and stamp the instant once.
    it->second = window_end;
    ++rstats_.suspects;
    if (recorder_ != nullptr) {
      recorder_->instant(src, trace::Category::kNet, trace::names::kNetSuspect,
                         now, "dst", static_cast<std::uint64_t>(dst));
    }
  }
  // The hook itself fires on every exhausted message, not just the first:
  // a lock request issued after the manager was suspected via unrelated
  // traffic must still reach failover once its own retransmits exhaust.
  // The protocol's handler is idempotent (locks already failed over are
  // skipped), so repeat invocations only cost the registry scan.
  suspect_handler_(src, dst);
}

void Transport::on_data_arrival(ProcId src, ProcId dst, std::uint32_t seq,
                                std::shared_ptr<sim::Engine::EventFn> fn) {
  if (plane_.crashed(dst, engine_.now())) {
    // A crashed NIC refuses the copy and sends no ack; the sender's
    // retransmissions deliver it after recovery.
    ++rstats_.crash_drops;
    return;
  }
  if (plane_.paused(dst, engine_.now())) {
    ++stats_.paused_deliveries;
    engine_.schedule(plane_.pause_end(dst, engine_.now()),
                     [this, src, dst, seq, fn] { on_data_arrival(src, dst, seq, fn); });
    return;
  }
  const std::size_t ch = channel(src, dst);
  RecvChannel& rc = recv_ch_[ch];
  const std::uint64_t key = pending_key(ch, seq);
  if (seq < rc.next_expected || rc.held.count(seq) != 0) {
    ++stats_.dup_dropped;
    send_ack(dst, src, key);  // the ack for the earlier copy may have died
    return;
  }
  if (seq == rc.next_expected) {
    ++rc.next_expected;
    (*fn)();
    // Release any copies that were held behind the gap, in order.
    for (auto it = rc.held.find(rc.next_expected); it != rc.held.end();
         it = rc.held.find(rc.next_expected)) {
      auto held = std::move(it->second);
      rc.held.erase(it);
      ++rc.next_expected;
      (*held)();
    }
  } else {
    ++stats_.held_ooo;
    rc.held.emplace(seq, std::move(fn));
  }
  send_ack(dst, src, key);
}

void Transport::send_ack(ProcId from, ProcId to, std::uint64_t key) {
  ++stats_.acks;
  if (recorder_ != nullptr) {
    recorder_->instant(from, trace::Category::kNet, trace::names::kNetAck,
                       engine_.now(), "dst", static_cast<std::uint64_t>(to));
  }
  const FaultPlane::Decision d = plane_.decide(from, to);
  if (d.delayed) ++stats_.delays_injected;
  if (d.reordered) ++stats_.reorders_injected;
  if (d.drop) {
    ++stats_.drops_injected;
    return;  // the sender retransmits; the receiver dedups
  }
  auto emit = [this, from, to](Cycles extra, std::uint64_t k) {
    // Delivers at `to`, the original sender. A crashed original sender
    // refuses the ack like any other inbound copy (its retransmit timer is
    // already deferred to the window end).
    auto deliver = [this, to, k] {
      if (plane_.crashed(to, engine_.now())) {
        ++rstats_.crash_drops;
        return;
      }
      pending_.erase(k);
    };
    if (extra == 0) {
      mesh_.send(from, to, kAckBytes, std::move(deliver));
    } else {
      engine_.schedule(engine_.now() + extra,
                       [this, from, to, h = std::move(deliver)]() mutable {
                         mesh_.send(from, to, kAckBytes, std::move(h));
                       });
    }
  };
  if (d.duplicate) {
    ++stats_.dups_injected;
    emit(d.extra_delay + kDuplicateOffset, key);
  }
  emit(d.extra_delay, key);
}

void Transport::send_best_effort(ProcId src, ProcId dst, std::size_t bytes,
                                 sim::Engine::EventFn deliver) {
  if (recorder_ != nullptr) {
    recorder_->instant(src, trace::Category::kNet, trace::names::kNetPush,
                       engine_.now(), "dst", static_cast<std::uint64_t>(dst),
                       "bytes", bytes);
  }
  if (!plane_.enabled() || src == dst) {
    mesh_.send(src, dst, bytes, std::move(deliver));
    return;
  }
  ++stats_.push_sends;
  auto fn = std::make_shared<sim::Engine::EventFn>(std::move(deliver));
  // Arrival still honours a destination pause window; there is no dedup, so
  // a duplicated copy runs the handler twice (receivers are idempotent).
  auto arrival = [this, dst, fn] {
    if (plane_.crashed(dst, engine_.now())) {
      // Best-effort copies have no retransmission: a crash-dropped push is
      // simply gone and the protocol's push-timeout fallback covers it.
      ++rstats_.crash_drops;
      return;
    }
    if (plane_.paused(dst, engine_.now())) {
      ++stats_.paused_deliveries;
      const auto held = fn;
      engine_.schedule(plane_.pause_end(dst, engine_.now()), [held] { (*held)(); });
      return;
    }
    (*fn)();
  };
  const FaultPlane::Decision d = plane_.decide(src, dst);
  if (d.delayed) ++stats_.delays_injected;
  if (d.reordered) ++stats_.reorders_injected;
  if (d.drop) {
    ++stats_.drops_injected;
    ++stats_.push_drops;
    return;
  }
  auto emit = [this, src, dst, bytes, &arrival](Cycles extra) {
    if (extra == 0) {
      mesh_.send(src, dst, bytes, arrival);
    } else {
      engine_.schedule(engine_.now() + extra, [this, src, dst, bytes, arrival] {
        mesh_.send(src, dst, bytes, arrival);
      });
    }
  };
  if (d.duplicate) {
    ++stats_.dups_injected;
    emit(d.extra_delay + kDuplicateOffset);
  }
  emit(d.extra_delay);
}

}  // namespace aecdsm::net
