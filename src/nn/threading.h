// A work-conserving compute pool for data-parallel loops over
// independent work items (the GON decision path: per-state GAT
// attention, encoder row blocks and the Eq.-1 ascent's candidate
// chunks share no state, so they fan out across threads without
// changing a single bit of the result).
//
// Design rules (see src/nn/README.md "Threaded batched inference"):
//   * The pool has `width` compute slots. Any number of threads may call
//     ParallelFor at once; each caller holds one slot for its whole
//     call and claims items itself (a caller finding the slots taken by
//     other callers and helpers waits for one). The width - 1 helper threads join open jobs only
//     while (callers in flight + attached threads + joined helpers) <
//     width, so the pool never runs more than `width` computations at
//     once: at full load no helper joins, and with one busy caller the
//     idle budget helps it. A helper rechecks the budget before every
//     block. Threads that also compute outside ParallelFor (service
//     workers) Attach, holding their slot until they idle.
//   * Blocks of items are claimed dynamically. fn receives a participant
//     SLOT index — 0 for the caller, h for helper h in [1, width) — and
//     per-participant scratch is owned by slot, never by OS thread.
//     Slots are unique among the participants of one call, and a slot
//     runs its blocks one after another.
//   * The pool adds NO synchronization around items: the callback must
//     only write state that is disjoint per item (e.g. distinct output
//     rows) or owned by its slot.
//   * Bit-identity: every item is computed by exactly one participant
//     with the same kernels and the same per-item inputs as the
//     sequential loop, so results are independent of the width and of
//     which participant claimed which block — the pool never splits or
//     reorders the arithmetic *within* an item.
//   * Exceptions thrown by the callback are captured per call, and the
//     FIRST one is rethrown to that call's caller (only) after every
//     block of the call finished.
//   * fn must not call ParallelFor on the same pool (slot 0 would be
//     shared by the outer and the inner call).
#ifndef CAROL_NN_THREADING_H_
#define CAROL_NN_THREADING_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace carol::nn {

class WorkerPool {
 public:
  using Fn = std::function<void(std::size_t, std::size_t, int)>;

  // `width` is the pool's compute budget (callers included); width - 1
  // helper threads are spawned. Values <= 1 create no helpers and
  // ParallelFor runs inline.
  explicit WorkerPool(int width);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int width() const { return width_; }

  // Runs fn(begin, end, slot) over [0, n) in blocks of `grain` items
  // (the last block may be shorter): block b is [b*grain,
  // min(n, (b+1)*grain)). The block boundaries depend only on (n, grain);
  // which participant runs a block does not. Blocks until every block
  // completed; rethrows the call's first callback exception.
  void ParallelFor(std::size_t n, std::size_t grain, const Fn& fn);
  // Same, with one block per slot: grain = ceil(n / width()).
  void ParallelFor(std::size_t n, const Fn& fn);

  // For threads that compute outside ParallelFor too (a service worker
  // between kernel calls is busy all the same): while attached, the
  // calling thread holds one compute slot, so helpers only take the
  // budget of threads that are idle, and its ParallelFor calls run on
  // that slot instead of taking another. Detach before idling (e.g.
  // waiting for work). Attach never waits, so an attaching thread may
  // overlap a helper's current block, and unattached callers never wait
  // for attached threads. A thread attaches to one pool at a time
  // (std::logic_error otherwise).
  void Attach();
  void Detach();

  // Telemetry over the calls that could fan out (more than one block on
  // a pool with helpers): how many there were, and their participants
  // summed (the caller plus every helper that ran at least one block).
  // participants / calls is the mean fan-out. Relaxed counters: reading
  // them never synchronizes with, or changes, the computation.
  std::uint64_t fanout_calls() const {
    return fanout_calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t fanout_participants() const {
    return fanout_participants_.load(std::memory_order_relaxed);
  }

 private:
  struct Job;

  void HelperLoop(int slot);
  // Claims and runs the next block of `job` on `slot`. Called with
  // `lock` held on mu_; unlocks around the block.
  void RunBlock(Job& job, int slot, std::unique_lock<std::mutex>& lock);
  // Hands a freed compute slot on. Called with mu_ held.
  void ReleaseSlot();

  const int width_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // helpers: budget + open job
  std::condition_variable slot_cv_;  // queued callers: a free slot
  std::condition_variable done_cv_;  // callers: their job finished
  // Jobs with unclaimed blocks, oldest first (guarded by mu_).
  std::deque<Job*> open_;
  int callers_ = 0;   // attached threads + unattached calls holding a slot
  int attached_ = 0;  // attached threads
  int queued_ = 0;    // unattached calls waiting for a slot
  int joined_ = 0;    // helpers currently running a block
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> helpers_;
  std::atomic<std::uint64_t> fanout_calls_{0};
  std::atomic<std::uint64_t> fanout_participants_{0};
};

}  // namespace carol::nn

#endif  // CAROL_NN_THREADING_H_
