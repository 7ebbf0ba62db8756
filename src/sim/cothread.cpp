#include "sim/cothread.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// The sanitizers track one stack per thread. Each switch tells ASan which
// stack becomes current (so it checks and unwinds the right one) and gives
// TSan a happens-before edge between the resumer and the fiber.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define AECDSM_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define AECDSM_TSAN_FIBERS 1
#endif

#if defined(__x86_64__)
// aecdsm_fiber_switch(save_sp, load_sp): push the System V callee-saved
// registers and the MXCSR / x87 control words, store the stack pointer in
// *save_sp, then load load_sp and pop the same frame from it. A new fiber's
// stack starts with such a frame whose return address is aecdsm_fiber_start,
// which calls the function in %rbx with the argument in %r12; it is the
// outermost frame of every fiber, so its CFI ends unwinds there.
extern "C" void aecdsm_fiber_switch(void** save_sp, void* load_sp);
extern "C" void aecdsm_fiber_start();

asm(R"(
  .pushsection .text
  .globl aecdsm_fiber_switch
  .hidden aecdsm_fiber_switch
  .type aecdsm_fiber_switch, @function
  .p2align 4
aecdsm_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size aecdsm_fiber_switch, .-aecdsm_fiber_switch

  .globl aecdsm_fiber_start
  .hidden aecdsm_fiber_start
  .type aecdsm_fiber_start, @function
  .p2align 4
aecdsm_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
  .size aecdsm_fiber_start, .-aecdsm_fiber_start
  .popsection
)");
#endif

namespace aecdsm::sim {

namespace {

/// The pthread default stack size the application bodies were written
/// against. MAP_NORESERVE: pages are committed only as the body touches them.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

}  // namespace

struct CoThread::Fiber {
  Fiber() : guard(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* m = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    AECDSM_CHECK_MSG(m != MAP_FAILED, "cannot map a " << kStackBytes << "-byte fiber stack");
    map = static_cast<char*>(m);
    // An overflow faults on the guard page instead of corrupting the heap.
    const bool guarded = mprotect(map, guard, PROT_NONE) == 0;
    if (!guarded) munmap(map, guard + kStackBytes);
    AECDSM_CHECK_MSG(guarded, "cannot protect a fiber stack's guard page");
#if defined(AECDSM_TSAN_FIBERS)
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  ~Fiber() {
#if defined(AECDSM_TSAN_FIBERS)
    __tsan_destroy_fiber(tsan_fiber);
#endif
#if defined(AECDSM_ASAN_FIBERS)
    // Frames that never returned (the entry frame, a cancelled body) leave
    // poisoned redzones behind; clear them before the range is reused.
    ASAN_UNPOISON_MEMORY_REGION(stack_lo(), kStackBytes);
#endif
    munmap(map, guard + kStackBytes);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  char* stack_lo() const { return map + guard; }
  char* stack_hi() const { return map + guard + kStackBytes; }

  const std::size_t guard;
  char* map = nullptr;

#if defined(__x86_64__)
  void* fiber_sp = nullptr;   ///< saved fiber stack pointer while suspended
  void* engine_sp = nullptr;  ///< saved resumer stack pointer while running
#else
  ucontext_t fiber_ctx;
  ucontext_t engine_ctx;
#endif

#if defined(AECDSM_ASAN_FIBERS)
  // The resumer's stack, learnt on every switch in: resume() may be called
  // from a different OS thread each time.
  const void* engine_stack_lo = nullptr;
  std::size_t engine_stack_bytes = 0;
#endif
#if defined(AECDSM_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
  void* tsan_engine = nullptr;
#endif
};

CoThread::CoThread(std::function<void()> body)
    : body_(std::move(body)), fiber_(std::make_unique<Fiber>()) {
  Fiber& f = *fiber_;
#if defined(__x86_64__)
  // The initial frame aecdsm_fiber_switch pops: control words, r15..r12,
  // rbx, rbp, return address. The return address sits at top - 24 so that
  // aecdsm_fiber_start begins with the 16-byte alignment of a call site.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  auto* frame = reinterpret_cast<std::uint64_t*>(f.stack_hi() - 80);
  frame[0] = mxcsr | (std::uint64_t{fpucw} << 32);
  frame[1] = 0;                                         // r15
  frame[2] = 0;                                         // r14
  frame[3] = 0;                                         // r13
  frame[4] = reinterpret_cast<std::uint64_t>(this);     // r12: argument
  frame[5] = reinterpret_cast<std::uint64_t>(&fiber_main);  // rbx: entry
  frame[6] = 0;  // rbp: ends frame-pointer walks here
  frame[7] = reinterpret_cast<std::uint64_t>(&aecdsm_fiber_start);
  f.fiber_sp = frame;
#else
  AECDSM_CHECK(getcontext(&f.fiber_ctx) == 0);
  f.fiber_ctx.uc_stack.ss_sp = f.stack_lo();
  f.fiber_ctx.uc_stack.ss_size = kStackBytes;
  f.fiber_ctx.uc_link = nullptr;
  // makecontext passes int arguments; split the pointer into two halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  void (*entry)(unsigned, unsigned) = [](unsigned hi, unsigned lo) {
    const std::uint64_t p = (std::uint64_t{hi} << 32) | lo;
    fiber_main(reinterpret_cast<CoThread*>(static_cast<std::uintptr_t>(p)));
  };
  makecontext(&f.fiber_ctx, reinterpret_cast<void (*)()>(entry), 2,
              static_cast<unsigned>(std::uint64_t{self} >> 32),
              static_cast<unsigned>(self & 0xFFFFFFFFu));
#endif
}

CoThread::~CoThread() {
  // Unwind a suspended body so its destructors run on its own stack. A
  // body that never started has nothing to unwind.
  if (started_ && !finished_) {
    cancel_ = true;
    while (!finished_) switch_in();
  }
}

void CoThread::fiber_main(CoThread* self) {
#if defined(AECDSM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &self->fiber_->engine_stack_lo,
                                  &self->fiber_->engine_stack_bytes);
#endif
  try {
    self->body_();
  } catch (const CoThreadCancelled&) {
    // Clean teardown path — fall through to the final switch.
  } catch (...) {
    self->error_ = std::current_exception();
  }
  // The handler has exited: no exception is in flight or being handled on
  // this stack when control leaves it for good.
  self->finished_ = true;
  self->switch_out();
  std::abort();  // a finished fiber is never switched into again
}

void CoThread::switch_in() {
  Fiber& f = *fiber_;
#if defined(AECDSM_TSAN_FIBERS)
  f.tsan_engine = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
#if defined(AECDSM_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, f.stack_lo(), kStackBytes);
#endif
#if defined(__x86_64__)
  aecdsm_fiber_switch(&f.engine_sp, f.fiber_sp);
#else
  AECDSM_CHECK(swapcontext(&f.engine_ctx, &f.fiber_ctx) == 0);
#endif
#if defined(AECDSM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void CoThread::switch_out() {
  Fiber& f = *fiber_;
#if defined(AECDSM_TSAN_FIBERS)
  __tsan_switch_to_fiber(f.tsan_engine, 0);
#endif
#if defined(AECDSM_ASAN_FIBERS)
  // A finished fiber passes no save slot, so ASan frees its fake stack.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack, f.engine_stack_lo,
                                 f.engine_stack_bytes);
#endif
#if defined(__x86_64__)
  aecdsm_fiber_switch(&f.fiber_sp, f.engine_sp);
#else
  AECDSM_CHECK(swapcontext(&f.fiber_ctx, &f.engine_ctx) == 0);
#endif
#if defined(AECDSM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, &f.engine_stack_lo, &f.engine_stack_bytes);
#endif
}

void CoThread::resume() {
  AECDSM_CHECK_MSG(!finished_, "resume() on a finished CoThread");
  started_ = true;
  switch_in();
  if (finished_) fiber_.reset();  // the stack holds nothing live any more
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void CoThread::yield_to_engine() {
  switch_out();
  if (cancel_) throw CoThreadCancelled{};
}

}  // namespace aecdsm::sim
