// Unit tests for the discrete-event engine and the cooperative processor
// model: event ordering, time monotonicity, quantum syncing, blocking,
// service accounting, and the cycle-conservation invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/params.hpp"
#include "sim/cothread.hpp"
#include "sim/engine.hpp"
#include "sim/processor.hpp"

namespace aecdsm::test {
namespace {

TEST(Engine, EventsRunInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, EqualTimesRunFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EqualTimeFifoHoldsUnderInterleavedSchedules) {
  // Heap stress for the hand-rolled event queue: schedule a mix of times in
  // a scrambled order, including ties and events scheduled from handlers,
  // and verify the realized order is (time, schedule-order) — i.e. global
  // time order with FIFO among equal times.
  sim::Engine e;
  struct Seen {
    Cycles t;
    int id;
  };
  std::vector<Seen> seen;
  int next_id = 0;
  std::vector<std::pair<Cycles, int>> expect;
  auto add = [&](Cycles t) {
    const int id = next_id++;
    expect.emplace_back(t, id);
    e.schedule(t, [&seen, t, id] { seen.push_back({t, id}); });
  };
  // Scrambled times with many duplicates (xorshift keeps it deterministic).
  std::uint64_t z = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 500; ++i) {
    z ^= z << 13;
    z ^= z >> 7;
    z ^= z << 17;
    add(z % 32);
  }
  // Handlers extend the schedule at and after now(): equal-time events
  // scheduled mid-run must still run after earlier-scheduled ties.
  e.schedule(16, [&] {
    add(16);
    add(31);
  });
  e.run();
  // Expected order: stable sort by time of (time, schedule id). Events
  // scheduled from the handler have larger ids, so stable sort keeps FIFO.
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(seen.size(), expect.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].t, expect[i].first) << "slot " << i;
    EXPECT_EQ(seen[i].id, expect[i].second) << "slot " << i;
  }
}

TEST(Engine, HandlersMayScheduleMoreEvents) {
  sim::Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) e.schedule(e.now() + 10, chain);
  };
  e.schedule(0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40u);
}

TEST(Engine, SchedulingIntoThePastThrows) {
  sim::Engine e;
  e.schedule(100, [&] {
    EXPECT_THROW(e.schedule(50, [] {}), SimError);
  });
  e.run();
}

TEST(Engine, IdleReportsQueueState) {
  sim::Engine e;
  EXPECT_TRUE(e.idle());
  e.schedule(1, [] {});
  EXPECT_FALSE(e.idle());
  e.run();
  EXPECT_TRUE(e.idle());
}

TEST(CoThread, YieldHandshake) {
  int phase = 0;
  sim::CoThread* self = nullptr;
  sim::CoThread t([&] {
    phase = 1;
    self->yield_to_engine();
    phase = 2;
  });
  self = &t;
  EXPECT_EQ(phase, 0);
  t.resume();
  EXPECT_EQ(phase, 1);
  EXPECT_FALSE(t.finished());
  t.resume();
  EXPECT_EQ(phase, 2);
  EXPECT_TRUE(t.finished());
}

TEST(CoThread, ExceptionPropagatesToEngine) {
  sim::CoThread t([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(t.resume(), std::runtime_error);
}

TEST(CoThread, DestructorCancelsSuspendedBody) {
  bool unwound = false;
  {
    sim::CoThread* self = nullptr;
    sim::CoThread t([&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&unwound};
      self->yield_to_engine();  // never resumed normally
    });
    self = &t;
    t.resume();
  }
  EXPECT_TRUE(unwound);
}

TEST(CoThread, BodyNeverResumedNeverRuns) {
  bool ran = false;
  { sim::CoThread t([&] { ran = true; }); }
  EXPECT_FALSE(ran);
}

thread_local int tl_resumer = 0;

// Read through a call, as Engine::tls() is: an inlined thread_local access
// may keep a TLS address computed before a switch.
[[gnu::noinline]] int resumer_id() { return tl_resumer; }

TEST(CoThread, BodySeesTheResumingThreadsThreadLocals) {
  std::vector<int> seen;
  sim::CoThread* self = nullptr;
  sim::CoThread t([&] {
    for (;;) {
      seen.push_back(resumer_id());
      self->yield_to_engine();
    }
  });
  self = &t;
  // Two resumer threads take turns: turn k belongs to thread k % 2 + 1.
  constexpr int kTurns = 6;
  std::atomic<int> turn{0};
  auto resumer = [&](int id) {
    tl_resumer = id;
    for (int k = id - 1; k < kTurns; k += 2) {
      while (turn.load(std::memory_order_acquire) != k) std::this_thread::yield();
      t.resume();
      turn.store(k + 1, std::memory_order_release);
    }
  };
  std::thread a(resumer, 1);
  std::thread b(resumer, 2);
  a.join();
  b.join();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(CoThread, ThousandLiveFibersRoundRobin) {
  constexpr int kFibers = 1024;
  constexpr int kRounds = 3;
  std::vector<int> steps(kFibers, 0);
  int unwound = 0;
  std::vector<std::unique_ptr<sim::CoThread>> ts;
  for (int i = 0; i < kFibers; ++i) {
    ts.push_back(std::make_unique<sim::CoThread>([&, i] {
      struct Guard {
        int* n;
        ~Guard() { ++*n; }
      } guard{&unwound};
      for (int r = 0; r < kRounds; ++r) {
        ++steps[i];
        ts[i]->yield_to_engine();
      }
    }));
  }
  for (int r = 0; r < kRounds; ++r) {
    for (auto& t : ts) t->resume();
  }
  EXPECT_EQ(std::count(steps.begin(), steps.end(), kRounds), kFibers);
  // Even fibers run to completion; odd ones are cancelled while suspended.
  for (int i = 0; i < kFibers; i += 2) {
    ts[i]->resume();
    EXPECT_TRUE(ts[i]->finished());
  }
  EXPECT_EQ(unwound, kFibers / 2);
  ts.clear();
  EXPECT_EQ(unwound, kFibers);
}

// 1 KiB per frame; the add after the call keeps every frame live.
[[gnu::noinline]] std::uint64_t deep_frames(sim::CoThread* self, int depth) {
  volatile unsigned char frame[1024];
  frame[0] = static_cast<unsigned char>(depth);
  frame[sizeof(frame) - 1] = frame[0];
  if (depth == 0) {
    self->yield_to_engine();  // suspend with the whole chain on the stack
    return frame[sizeof(frame) - 1];
  }
  return deep_frames(self, depth - 1) + frame[sizeof(frame) - 1];
}

TEST(CoThread, MegabyteOfRecursionOnTheFiberStack) {
  constexpr int kDepth = 1024;
  std::uint64_t sum = 0;
  sim::CoThread* self = nullptr;
  sim::CoThread t([&] { sum = deep_frames(self, kDepth); });
  self = &t;
  t.resume();
  EXPECT_FALSE(t.finished());
  t.resume();
  EXPECT_TRUE(t.finished());
  std::uint64_t expect = 0;
  for (int d = 0; d <= kDepth; ++d) expect += static_cast<unsigned char>(d);
  EXPECT_EQ(sum, expect);
}

TEST(CoThread, NestedThrowAfterYieldsComesOutOfResume) {
  constexpr int kYields = 3;
  sim::CoThread* self = nullptr;
  std::function<void(int)> nest = [&](int depth) {
    if (depth == 0) throw std::runtime_error("deep");
    nest(depth - 1);
  };
  sim::CoThread t([&] {
    for (int k = 0; k < kYields; ++k) self->yield_to_engine();
    nest(8);
  });
  self = &t;
  for (int k = 0; k < kYields; ++k) {
    t.resume();
    EXPECT_FALSE(t.finished());
  }
  try {
    t.resume();
    ADD_FAILURE() << "resume() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "deep");
  }
  EXPECT_TRUE(t.finished());
}

class ProcessorTest : public ::testing::Test {
 protected:
  SystemParams params_;
  sim::Engine engine_;
};

TEST_F(ProcessorTest, AdvanceAccumulatesBuckets) {
  sim::Processor p(engine_, 0, params_);
  p.start([&] {
    p.advance(100, sim::Bucket::kBusy);
    p.advance(50, sim::Bucket::kData);
    p.advance(25, sim::Bucket::kSynch);
  });
  engine_.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.acct().busy, 100u);
  EXPECT_EQ(p.acct().data, 50u);
  EXPECT_EQ(p.acct().synch, 25u);
  EXPECT_EQ(p.finish_time(), 175u);
  EXPECT_EQ(p.acct().total(), p.now());
}

TEST_F(ProcessorTest, WaitBlocksUntilPoke) {
  sim::Processor p(engine_, 0, params_);
  bool flag = false;
  p.start([&] {
    p.advance(10, sim::Bucket::kBusy);
    p.wait(sim::Bucket::kSynch, [&] { return flag; });
    p.advance(5, sim::Bucket::kBusy);
  });
  engine_.schedule(500, [&] {
    flag = true;
    p.poke();
  });
  engine_.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.acct().busy, 15u);
  EXPECT_EQ(p.acct().synch, 490u);  // blocked 10..500
  EXPECT_EQ(p.finish_time(), 505u);
}

TEST_F(ProcessorTest, SpuriousPokeRechecksPredicate) {
  sim::Processor p(engine_, 0, params_);
  bool flag = false;
  p.start([&] { p.wait(sim::Bucket::kSynch, [&] { return flag; }); });
  engine_.schedule(100, [&] { p.poke(); });  // spurious: predicate still false
  engine_.schedule(200, [&] {
    flag = true;
    p.poke();
  });
  engine_.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.finish_time(), 200u);
}

TEST_F(ProcessorTest, ServiceDuringBlockBecomesIpc) {
  sim::Processor p(engine_, 0, params_);
  bool flag = false;
  p.start([&] { p.wait(sim::Bucket::kSynch, [&] { return flag; }); });
  engine_.schedule(100, [&] { p.service(600); });  // interrupt(4000) + 600
  engine_.schedule(10000, [&] {
    flag = true;
    p.poke();
  });
  engine_.run();
  // The 4600 service cycles overlapped the block: attributed to ipc, the
  // rest of the 10000-cycle wait to synch.
  EXPECT_EQ(p.acct().ipc, 4600u);
  EXPECT_EQ(p.acct().synch, 10000u - 4600u);
  EXPECT_EQ(p.acct().total(), p.now());
}

TEST_F(ProcessorTest, ServiceWhileRunningStealsCycles) {
  sim::Processor p(engine_, 0, params_);
  p.start([&] {
    p.advance(10, sim::Bucket::kBusy);
    p.sync();
    // A service lands now (scheduled below), stealing cycles that the next
    // advance absorbs.
    p.advance(10, sim::Bucket::kBusy);
    p.sync();
  });
  engine_.schedule(5, [&] { p.service(100); });
  engine_.run();
  EXPECT_EQ(p.acct().busy, 20u);
  EXPECT_EQ(p.acct().ipc, params_.interrupt_cycles + 100);
  EXPECT_EQ(p.acct().total(), p.now());
}

TEST_F(ProcessorTest, QuantumForcesPeriodicSync) {
  SystemParams params = params_;
  params.quantum_cycles = 100;
  sim::Processor p(engine_, 0, params);
  Cycles seen_at_service = 0;
  p.start([&] {
    for (int i = 0; i < 100; ++i) p.advance(10, sim::Bucket::kBusy);
  });
  engine_.schedule(500, [&] { seen_at_service = engine_.now(); });
  engine_.run();
  // The event at 500 ran even though the app only yields at quantum
  // boundaries; with quantum 100 the skew is bounded.
  EXPECT_EQ(seen_at_service, 500u);
  EXPECT_EQ(p.finish_time(), 1000u);
}

TEST_F(ProcessorTest, ServicesSerializeOnTheNode) {
  sim::Processor p(engine_, 0, params_);
  bool flag = false;
  p.start([&] { p.wait(sim::Bucket::kSynch, [&] { return flag; }); });
  Cycles done1 = 0, done2 = 0;
  engine_.schedule(10, [&] { done1 = p.service(1000); });
  engine_.schedule(10, [&] { done2 = p.service(1000); });
  engine_.schedule(100000, [&] {
    flag = true;
    p.poke();
  });
  engine_.run();
  EXPECT_EQ(done1, 10u + 5000u);
  EXPECT_EQ(done2, done1 + 5000u);  // queued behind the first
}

TEST_F(ProcessorTest, TwoProcessorsInterleaveDeterministically) {
  sim::Processor a(engine_, 0, params_);
  sim::Processor b(engine_, 1, params_);
  std::vector<int> order;
  bool a_done = false;
  a.start([&] {
    a.advance(100, sim::Bucket::kBusy);
    a.sync();
    order.push_back(0);
    a_done = true;
    b.poke();
  });
  b.start([&] {
    b.wait(sim::Bucket::kSynch, [&] { return a_done; });
    order.push_back(1);
  });
  engine_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
}

}  // namespace
}  // namespace aecdsm::test
