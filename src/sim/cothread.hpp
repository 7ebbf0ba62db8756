// Cooperative thread: a stackful fiber that runs only when the simulation
// engine explicitly hands it control, and always hands control back before
// the engine proceeds. At any instant at most one cooperative thread (or the
// engine itself) is running, which makes the simulation deterministic while
// letting application code keep its natural sequential structure — the same
// contract Mint gave the original paper's workloads.
//
// A switch is a user-space register swap (ucontext off x86-64); no kernel
// scheduler is involved. The fiber runs on whichever OS thread calls
// resume(), so `thread_local` state seen by its body is the resumer's.
#pragma once

#include <exception>
#include <functional>
#include <memory>

namespace aecdsm::sim {

/// Thrown inside a cooperative thread when the engine tears it down early
/// (e.g., a failed run being unwound). Body code should not catch it.
struct CoThreadCancelled {};

class CoThread {
 public:
  /// The body starts suspended; nothing runs until the first resume().
  explicit CoThread(std::function<void()> body);

  /// If the body has started but not finished, it is cancelled (resumed
  /// with the cancel flag set, unwinding via CoThreadCancelled); a body
  /// that never started never runs. Frees the fiber's stack.
  ~CoThread();

  CoThread(const CoThread&) = delete;
  CoThread& operator=(const CoThread&) = delete;

  /// Engine side: run the thread until it yields or finishes. If the body
  /// exited with an exception, it is rethrown here on the engine side.
  void resume();

  /// Thread side: suspend and return control to the engine. Throws
  /// CoThreadCancelled if the engine is tearing the thread down. Never call
  /// it inside a catch block or from a destructor run by unwinding: the C++
  /// exception globals belong to the OS thread, not to the fiber.
  void yield_to_engine();

  bool finished() const { return finished_; }

 private:
  struct Fiber;  // stack mapping, saved contexts, sanitizer handles

  [[noreturn]] static void fiber_main(CoThread* self);
  void switch_in();   ///< engine -> fiber; returns when the fiber switches out
  void switch_out();  ///< fiber -> engine; returns when resumed again

  std::function<void()> body_;
  std::unique_ptr<Fiber> fiber_;  ///< null once the body has finished
  bool started_ = false;
  bool finished_ = false;
  bool cancel_ = false;
  std::exception_ptr error_;
};

}  // namespace aecdsm::sim
