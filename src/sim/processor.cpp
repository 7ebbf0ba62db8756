#include "sim/processor.hpp"

#include <algorithm>

#include "trace/recorder.hpp"

namespace aecdsm::sim {

Processor::Processor(Engine& engine, ProcId id, const SystemParams& params)
    : engine_(engine), id_(id), params_(params) {}

Processor::~Processor() = default;

void Processor::start(std::function<void()> body) {
  AECDSM_CHECK_MSG(!thread_, "Processor::start called twice");
  thread_ = std::make_unique<CoThread>([this, b = std::move(body)] {
    running_app_ = true;
    b();
    absorb_stolen();
    running_app_ = false;
    done_ = true;
    finish_time_ = now_;
  });
  now_ = std::max(now_, engine_.now());
  schedule_resume(engine_.now());
}

void Processor::schedule_resume(Cycles t) {
  engine_.schedule(t, [this] {
    if (crash_hold_) {
      const Cycles release = crash_hold_(engine_.now());
      if (release > engine_.now()) {
        // Fail-stop window: hold the application thread until the node
        // recovers, then resume from its last sync point.
        schedule_resume(release);
        return;
      }
      // A deferred resume lands past the local clock; the dead time is
      // charged so the breakdown still sums to the finish time.
      if (engine_.now() > now_) charge(engine_.now() - now_, Bucket::kOthersMisc);
    }
    thread_->resume();
  });
}

void Processor::charge(Cycles c, Bucket b) {
  now_ += c;
  switch (b) {
    case Bucket::kBusy: acct_.busy += c; break;
    case Bucket::kData: acct_.data += c; break;
    case Bucket::kSynch: acct_.synch += c; break;
    case Bucket::kIpc: acct_.ipc += c; break;
    case Bucket::kOthersCache: acct_.others_cache += c; break;
    case Bucket::kOthersTlb: acct_.others_tlb += c; break;
    case Bucket::kOthersWb: acct_.others_wb += c; break;
    case Bucket::kOthersMisc: acct_.others_misc += c; break;
  }
}

void Processor::absorb_stolen() {
  if (stolen_ != 0) {
    const Cycles s = stolen_;
    stolen_ = 0;
    charge(s, Bucket::kIpc);
    since_sync_ += s;
  }
}

void Processor::advance(Cycles c, Bucket b) {
  AECDSM_CHECK(running_app_);
  charge(c, b);
  absorb_stolen();
  since_sync_ += c;
  if (since_sync_ >= params_.quantum_cycles) sync();
}

void Processor::sync() {
  AECDSM_CHECK(running_app_);
  absorb_stolen();
  since_sync_ = 0;
  if (now_ > engine_.now()) yield_for_resume_at(now_);
}

void Processor::yield_for_resume_at(Cycles t) {
  schedule_resume(t);
  running_app_ = false;
  thread_->yield_to_engine();
  running_app_ = true;
}

void Processor::wait(Bucket bucket, const std::function<bool()>& pred) {
  AECDSM_CHECK(running_app_);
  sync();
  while (!pred()) {
    blocked_ = true;
    block_start_ = now_;
    block_bucket_ = bucket;
    running_app_ = false;
    thread_->yield_to_engine();
    running_app_ = true;
    // poke() cleared blocked_, performed the accounting and advanced now_.
  }
}

void Processor::poke() {
  if (!blocked_) return;
  blocked_ = false;
  unblock_accounting(engine_.now());
  schedule_resume(engine_.now());
}

void Processor::unblock_accounting(Cycles t) {
  AECDSM_CHECK_MSG(t >= block_start_, "unblock before block start");
  const Cycles dur = t - block_start_;
  const Cycles used = std::min(ipc_during_block_, dur);
  charge(dur - used, block_bucket_);
  charge(used, Bucket::kIpc);
  // Service time extending beyond the wait delays the application's
  // subsequent work; it is absorbed as stolen cycles.
  stolen_ += ipc_during_block_ - used;
  ipc_during_block_ = 0;
  AECDSM_CHECK(now_ == t);
}

Cycles Processor::service(Cycles handler_cost) {
  const Cycles arrive = engine_.now();
  const Cycles start = std::max(arrive, svc_free_);
  const Cycles dur = params_.interrupt_cycles + handler_cost;
  svc_free_ = start + dur;
  if (recorder_ != nullptr) {
    recorder_->span(id_, trace::Category::kSvc, trace::names::kService, start,
                    svc_free_, "cost", handler_cost);
  }
  if (done_) {
    // The application is gone; serving still occupies the node.
    charge(dur, Bucket::kIpc);
  } else if (blocked_) {
    ipc_during_block_ += dur;
  } else {
    stolen_ += dur;
  }
  return svc_free_;
}

}  // namespace aecdsm::sim
