#include "nn/threading.h"

#include <algorithm>
#include <stdexcept>

namespace carol::nn {

namespace {
// The pool the calling thread is attached to (WorkerPool::Attach).
thread_local const WorkerPool* t_attached = nullptr;
}  // namespace

// One ParallelFor call. Lives on the caller's stack; every field except
// the immutable job description is guarded by mu_.
struct WorkerPool::Job {
  const Fn* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t blocks = 0;
  std::size_t next = 0;      // first unclaimed block
  std::size_t finished = 0;  // blocks completed
  std::uint64_t seq = 0;     // posting order, 0 = never posted to open_
  int participants = 1;      // the caller plus distinct joined helpers
  std::exception_ptr error;
};

WorkerPool::WorkerPool(int width) : width_(std::max(1, width)) {
  helpers_.reserve(static_cast<std::size_t>(width_ - 1));
  for (int h = 1; h < width_; ++h) {
    helpers_.emplace_back([this, h] { HelperLoop(h); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& helper : helpers_) {
    if (helper.joinable()) helper.join();
  }
}

void WorkerPool::ParallelFor(std::size_t n, const Fn& fn) {
  const auto w = static_cast<std::size_t>(width());
  ParallelFor(n, (n + w - 1) / w, fn);
}

void WorkerPool::ParallelFor(std::size_t n, std::size_t grain,
                             const Fn& fn) {
  if (n == 0) return;
  Job job;
  job.fn = &fn;
  job.n = n;
  job.grain = std::max<std::size_t>(1, grain);
  job.blocks = (n + job.grain - 1) / job.grain;
  const bool fanout = width_ > 1 && job.blocks > 1;
  // An attached caller computes on the slot it already holds. Any other
  // caller takes one for the whole call, even when its single block
  // leaves nothing to share. It waits while the other unattached callers
  // and the joined helpers fill the budget (queued callers also stop
  // helpers from joining), but never for attached threads: those may be
  // blocked on a lock this caller holds.
  const bool attached = t_attached == this;
  std::unique_lock<std::mutex> lock(mu_);
  if (!attached) {
    const auto has_slot = [&] {
      return callers_ - attached_ + joined_ < width_;
    };
    if (!has_slot()) {
      ++queued_;
      slot_cv_.wait(lock, has_slot);
      --queued_;
    }
    ++callers_;
  }
  if (fanout) {
    job.seq = ++next_seq_;
    open_.push_back(&job);
    const int budget = width_ - callers_ - queued_ - joined_;
    const auto wake = std::min<std::size_t>(
        job.blocks - 1, static_cast<std::size_t>(std::max(0, budget)));
    for (std::size_t i = 0; i < wake; ++i) work_cv_.notify_one();
  }
  while (job.next < job.blocks) RunBlock(job, /*slot=*/0, lock);
  done_cv_.wait(lock, [&] { return job.finished == job.blocks; });
  if (!attached) {
    --callers_;
    ReleaseSlot();
  }
  if (fanout) {
    fanout_calls_.fetch_add(1, std::memory_order_relaxed);
    fanout_participants_.fetch_add(
        static_cast<std::uint64_t>(job.participants),
        std::memory_order_relaxed);
  }
  lock.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

void WorkerPool::Attach() {
  if (t_attached != nullptr) {
    throw std::logic_error("WorkerPool::Attach: thread already attached");
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++callers_;
  ++attached_;
  t_attached = this;
}

void WorkerPool::Detach() {
  if (t_attached != this) {
    throw std::logic_error("WorkerPool::Detach: thread not attached here");
  }
  std::lock_guard<std::mutex> lock(mu_);
  --callers_;
  --attached_;
  ReleaseSlot();
  t_attached = nullptr;
}

void WorkerPool::ReleaseSlot() {
  // Queued callers come first; otherwise the slot may let a helper join
  // another caller's open job.
  if (queued_ > 0) {
    slot_cv_.notify_one();
  } else if (!open_.empty()) {
    work_cv_.notify_one();
  }
}

void WorkerPool::RunBlock(Job& job, int slot,
                          std::unique_lock<std::mutex>& lock) {
  const std::size_t b = job.next++;
  if (job.next == job.blocks && job.seq != 0) {  // posted: unlist it
    open_.erase(std::find(open_.begin(), open_.end(), &job));
  }
  lock.unlock();
  const std::size_t begin = b * job.grain;
  std::exception_ptr error;
  try {
    (*job.fn)(begin, std::min(job.n, begin + job.grain), slot);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !job.error) job.error = error;
  if (++job.finished == job.blocks) done_cv_.notify_all();
}

void WorkerPool::HelperLoop(int slot) {
  // open_ is served oldest first and a job leaves it for good once its
  // last block is claimed, so the jobs one helper joins come in posting
  // order: a new seq means a job this helper has not yet counted.
  std::uint64_t last_seq = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // The budget is rechecked before every block, so a caller arriving
    // mid-job reclaims its slot after at most one block.
    work_cv_.wait(lock, [&] {
      return stopping_ ||
             (!open_.empty() && callers_ + queued_ + joined_ < width_);
    });
    if (stopping_) return;
    Job& job = *open_.front();
    if (job.seq != last_seq) {
      last_seq = job.seq;
      ++job.participants;
    }
    ++joined_;
    RunBlock(job, slot, lock);
    --joined_;
    if (queued_ > 0) slot_cv_.notify_one();
  }
}

}  // namespace carol::nn
