#include "dsm/context.hpp"

#include <cstdlib>

#include "common/log.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::dsm {

namespace {
/// Debug watchpoint: AECDSM_TRACE_PAGE/AECDSM_TRACE_WORD name a shared word
/// whose application-level writes are logged.
PageId ctx_trace_page() {
  static const PageId pg = [] {
    const char* v = std::getenv("AECDSM_TRACE_PAGE");
    return v == nullptr ? kNoPage : static_cast<PageId>(std::atoi(v));
  }();
  return pg;
}
std::size_t ctx_trace_word() {
  static const std::size_t w = [] {
    const char* v = std::getenv("AECDSM_TRACE_WORD");
    return v == nullptr ? std::size_t{0} : static_cast<std::size_t>(std::atoi(v));
  }();
  return w;
}
}  // namespace

Context::Context(Machine& machine, ProcId self, std::uint64_t seed)
    : machine_(machine),
      self_(self),
      rng_(Rng(seed).split(static_cast<std::uint64_t>(self) + 1)),
      page_access_step_(machine.num_pages(), 0) {}

unsigned char* Context::raw(GAddr addr) {
  const PageId pg = static_cast<PageId>(addr / machine_.params().page_bytes);
  const std::size_t off = addr % machine_.params().page_bytes;
  mem::PageFrame& f = machine_.node(self_).store->frame(pg);
  return reinterpret_cast<unsigned char*>(f.data.data()) + off;
}

void Context::access(GAddr addr, std::size_t size, bool is_write) {
  const auto& params = machine_.params();
  AECDSM_CHECK_MSG(addr % size == 0, "misaligned shared access at " << addr);
  AECDSM_CHECK_MSG(addr + size <= machine_.shared_bytes_used(),
                   "shared access beyond allocated arena: " << addr);
  const PageId pg = static_cast<PageId>(addr / params.page_bytes);
  Node& node = machine_.node(self_);
  sim::Processor& p = *node.proc;

  // The access instruction itself.
  p.advance(1, sim::Bucket::kBusy);

  // Address translation.
  const Cycles tlb_penalty = node.tlb->access(pg);
  if (tlb_penalty != 0) p.advance(tlb_penalty, sim::Bucket::kOthersTlb);

  // Page-level checks — the slow path enters the coherence protocol.
  mem::PageFrame& f = node.store->frame(pg);
  if (!f.valid || (is_write && f.write_protected)) {
    p.sync();
    const Cycles t0 = p.now();
    const bool was_invalid = !f.valid;
    if (was_invalid && !is_write) {
      ++node.faults.read_faults;
    } else {
      ++node.faults.write_faults;
    }
    if (in_critical_section()) ++node.faults.faults_inside_cs;
    if (is_write) {
      node.protocol->on_write_fault(pg);
      AECDSM_CHECK_MSG(f.valid && !f.write_protected,
                       "protocol left page " << pg << " unwritable after write fault");
    } else {
      node.protocol->on_read_fault(pg);
      AECDSM_CHECK_MSG(f.valid, "protocol left page " << pg << " invalid after read fault");
    }
    node.faults.fault_cycles += p.now() - t0;
    if (trace::Recorder* rec = machine_.recorder()) {
      rec->span(self_, trace::Category::kMem,
                is_write ? trace::names::kFaultWrite : trace::names::kFaultRead,
                t0, p.now(), "page", pg);
    }
  }

  // Once-per-step access metadata for the protocol's barrier lists.
  if (page_access_step_[pg] != step_ + 1) {
    page_access_step_[pg] = step_ + 1;
    node.protocol->on_page_access(pg);
  }

  if (pg == ctx_trace_page()) {
    const std::size_t off_word = (addr % params.page_bytes) / kWordBytes;
    const std::size_t nwords = size >= kWordBytes ? size / kWordBytes : 1;
    // AECDSM_TRACE_WORD=-1 traces every word of the page; otherwise only
    // accesses covering the named word are logged.
    const bool all = ctx_trace_word() == static_cast<std::size_t>(-1);
    if (all || (off_word <= ctx_trace_word() &&
                ctx_trace_word() < off_word + nwords)) {
      std::int64_t v = static_cast<std::int32_t>(f.data[off_word]);
      if (size == 8 && off_word + 1 < f.data.size()) {
        v = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(f.data[off_word + 1]) << 32) |
            f.data[off_word]);
      }
      AECDSM_DEBUG("ctx p" << self_ << (is_write ? " WRITE" : " READ") << " pg"
                           << pg << " w" << off_word << " step" << step_
                           << " frame=" << v);
    }
  }

  // Cache and write buffer.
  const Cycles miss_penalty = node.cache->access(addr);
  if (miss_penalty != 0) p.advance(miss_penalty, sim::Bucket::kOthersCache);
  if (is_write) {
    const Cycles stall = node.wb->write(p.now());
    if (stall != 0) p.advance(stall, sim::Bucket::kOthersWb);
  }
}

void Context::lock(LockId l) {
  AECDSM_CHECK_MSG(locks_held_.count(l) == 0, "recursive lock " << l);
  machine_.note_lock_acquire(l);
  trace::Recorder* rec = machine_.recorder();
  sim::Processor& p = *machine_.node(self_).proc;
  const Cycles t0 = p.now();
  if (rec != nullptr) {
    rec->instant(self_, trace::Category::kLock, trace::names::kLockRequest, t0,
                 "lock", l);
  }
  machine_.node(self_).protocol->acquire(l);
  if (rec != nullptr) {
    rec->span(self_, trace::Category::kLock, trace::names::kLockWait, t0,
              p.now(), "lock", l);
  }
  locks_held_.insert(l);
}

void Context::unlock(LockId l) {
  AECDSM_CHECK_MSG(locks_held_.count(l) == 1, "unlock of unheld lock " << l);
  locks_held_.erase(l);
  trace::Recorder* rec = machine_.recorder();
  sim::Processor& p = *machine_.node(self_).proc;
  const Cycles t0 = p.now();
  machine_.node(self_).protocol->release(l);
  if (rec != nullptr) {
    rec->span(self_, trace::Category::kLock, trace::names::kLockRelease, t0,
              p.now(), "lock", l);
  }
}

void Context::barrier() {
  AECDSM_CHECK_MSG(locks_held_.empty(), "barrier entered while holding a lock");
  if (self_ == 0) machine_.note_barrier_episode();
  trace::Recorder* rec = machine_.recorder();
  sim::Processor& p = *machine_.node(self_).proc;
  const Cycles t0 = p.now();
  if (rec != nullptr) {
    rec->instant(self_, trace::Category::kBarrier, trace::names::kBarrierArrive,
                 t0, "episode", machine_.barrier_episodes());
  }
  machine_.node(self_).protocol->barrier();
  if (rec != nullptr) {
    rec->span(self_, trace::Category::kBarrier, trace::names::kBarrierWait, t0,
              p.now(), "episode", machine_.barrier_episodes());
    rec->instant(self_, trace::Category::kBarrier, trace::names::kBarrierDepart,
                 p.now(), "episode", machine_.barrier_episodes());
  }
  ++step_;
}

void Context::lock_acquire_notice(LockId l) {
  machine_.node(self_).protocol->acquire_notice(l);
}

void Context::invalidate_cache_page(PageId page) {
  machine_.node(self_).cache->invalidate_page(page, machine_.params().page_bytes);
}

}  // namespace aecdsm::dsm
