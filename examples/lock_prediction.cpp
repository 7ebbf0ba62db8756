// Using the LAP predictor as a standalone library: feed it a synthetic
// lock-transfer history (a migratory token passing between a producer pair
// with occasional interlopers) and watch the three low-level techniques —
// waiting queue, virtual queue, transfer affinity — combine into the
// update-set prediction of paper §2.2.
//
//   ./build/examples/lock_prediction
#include <cstdio>

#include "common/rng.hpp"
#include "policy/lap.hpp"

using namespace aecdsm;

namespace {

void show_set(const char* label, const std::vector<ProcId>& set) {
  std::printf("%-24s {", label);
  for (std::size_t i = 0; i < set.size(); ++i) {
    std::printf("%s%d", i == 0 ? "" : ", ", set[i]);
  }
  std::printf("}\n");
}

}  // namespace

int main() {
  constexpr int kProcs = 8;
  policy::LockLap lap(kProcs, /*update_set_size=*/2, /*affinity_threshold=*/0.6);
  Rng rng(2026);

  // A migratory token: processors 2 and 5 exchange the lock most of the
  // time; occasionally another processor takes a turn.
  ProcId owner = 2;
  for (int i = 0; i < 200; ++i) {
    ProcId next;
    if (rng.next_below(10) < 8) {
      next = owner == 2 ? 5 : 2;
    } else {
      next = static_cast<ProcId>(rng.next_below(kProcs));
      if (next == owner) next = static_cast<ProcId>((next + 1) % kProcs);
    }
    lap.compute_update_set(owner);  // manager-side snapshot at the grant
    lap.record_transfer(owner, next);
    owner = next;
  }

  std::printf("after 200 transfers of a mostly 2<->5 migratory lock:\n\n");
  show_set("affinity set of p2:", lap.affinity_set(2));
  show_set("affinity set of p5:", lap.affinity_set(5));
  show_set("update set U(p2):", lap.compute_update_set(2));

  std::printf("\nwith a waiter queued (p7), the queue head wins (paper step 1):\n");
  lap.enqueue_waiter(7);
  show_set("update set U(p2):", lap.compute_update_set(2));
  lap.dequeue_waiter();

  std::printf("\nwith acquire notices from p1 and p4 (virtual queue):\n");
  lap.add_notice(1);
  lap.add_notice(4);
  show_set("update set U(p6):", lap.compute_update_set(6));

  std::printf("\nmeasured success of each technique on the history so far:\n");
  const policy::LapScores& s = lap.scores();
  std::printf("  LAP             %5.1f%%\n", s.lap.rate() * 100.0);
  std::printf("  waitQ           %5.1f%%\n", s.waitq.rate() * 100.0);
  std::printf("  waitQ+affinity  %5.1f%%\n", s.waitq_affinity.rate() * 100.0);
  std::printf("  waitQ+virtualQ  %5.1f%%\n", s.waitq_virtualq.rate() * 100.0);
  return 0;
}
