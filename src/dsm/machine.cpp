#include "dsm/machine.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "dsm/context.hpp"
#include "dsm/protocol.hpp"

namespace aecdsm::dsm {

Machine::Machine(const SystemParams& params, std::size_t max_shared_bytes)
    : params_(params),
      net_(engine_, params_),
      transport_(engine_, net_, params_),
      num_pages_((max_shared_bytes + params.page_bytes - 1) / params.page_bytes) {
  logging::init_from_env();
  const std::string err = params_.validate();
  AECDSM_CHECK_MSG(err.empty(), err);
  nodes_.resize(static_cast<std::size_t>(params_.num_procs));
  for (int p = 0; p < params_.num_procs; ++p) {
    Node& n = nodes_[static_cast<std::size_t>(p)];
    n.proc = std::make_unique<sim::Processor>(engine_, p, params_);
    n.store = std::make_unique<mem::PageStore>(params_, num_pages_);
    n.cache = std::make_unique<mem::CacheModel>(params_);
    n.tlb = std::make_unique<mem::TlbModel>(params_);
    n.wb = std::make_unique<mem::WriteBuffer>(params_);
  }
}

Machine::~Machine() = default;

void Machine::set_recorder(trace::Recorder* rec) {
  recorder_ = rec;
  transport_.set_recorder(rec);
  for (Node& n : nodes_) n.proc->set_recorder(rec);
}

GAddr Machine::alloc_shared(std::size_t bytes) {
  AECDSM_CHECK(bytes > 0);
  // Every allocation starts on a fresh page so distinct arrays never share
  // a coherence unit (false sharing still occurs within an array, as in
  // the real applications).
  const GAddr base = alloc_cursor_;
  const std::size_t pages = (bytes + params_.page_bytes - 1) / params_.page_bytes;
  alloc_cursor_ += pages * params_.page_bytes;
  AECDSM_CHECK_MSG(alloc_cursor_ <= num_pages_ * params_.page_bytes,
                   "shared arena exhausted: need " << alloc_cursor_ << " bytes");
  return base;
}

void Machine::post(ProcId from, ProcId to, std::size_t bytes, Cycles service_cost,
                   std::function<void()> handler) {
  transport_.send(from, to, bytes,
                  [this, to, service_cost, h = std::move(handler)]() mutable {
                    const Cycles done = node(to).proc->service(service_cost);
                    engine_.schedule(done, std::move(h));
                  });
}

void Machine::post_best_effort(ProcId from, ProcId to, std::size_t bytes,
                               Cycles service_cost, std::function<void()> handler) {
  // The handler is copied, not moved, into the engine: a duplicated copy
  // delivers (and services) twice, and the receiver must be idempotent.
  transport_.send_best_effort(
      from, to, bytes, [this, to, service_cost, h = std::move(handler)]() {
        const Cycles done = node(to).proc->service(service_cost);
        engine_.schedule(done, h);
      });
}

}  // namespace aecdsm::dsm
