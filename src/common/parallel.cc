#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <system_error>

#include "common/logging.h"

namespace dana {

namespace {

/// Set while a TeamLease holds the team.
std::atomic<bool> team_held{false};

/// Returns once `a` no longer holds `old` and the caller may read what the
/// writer published before changing it. Polls first: a worker's next job,
/// or the last worker's end, often comes sooner than a futex wake-up.
void AwaitChange(const std::atomic<uint32_t>& a, uint32_t old) {
  for (int i = 0; i < Backoff::kPolls; ++i) {
    if (a.load(std::memory_order_acquire) != old) return;
    CpuRelax();
  }
  while (a.load(std::memory_order_acquire) == old) a.wait(old);
}

/// The CPUs in this thread's affinity mask; 1 if it cannot be read.
uint32_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace

WorkerPool::WorkerPool(uint32_t workers) {
  threads_.reserve(workers > 1 ? workers - 1 : 0);
  for (uint32_t w = 1; w < workers; ++w) {
    try {
      threads_.emplace_back([this, w] { Loop(w); });
    } catch (const std::system_error&) {
      break;  // no thread to be had: run with the ones started
    }
  }
}

WorkerPool::~WorkerPool() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  // threads_ joins in its destructor.
}

void WorkerPool::Run(uint32_t n, const std::function<void(uint32_t)>& fn) {
  DANA_CHECK(n <= size()) << n << " workers asked of a pool of " << size();
  if (n <= 1) {
    if (n > 0) fn(0);
    return;
  }
  job_ = &fn;
  job_workers_ = n;
  // Every thread acknowledges every job, even one it has no part in, so
  // that none can still be reading job_ when the next Run overwrites it.
  const auto threads = static_cast<uint32_t>(threads_.size());
  pending_.store(threads, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  fn(0);
  for (uint32_t left = pending_.load(std::memory_order_acquire); left != 0;
       left = pending_.load(std::memory_order_acquire)) {
    AwaitChange(pending_, left);
  }
}

void WorkerPool::Loop(uint32_t w) {
  uint32_t seen = 0;
  for (;;) {
    AwaitChange(generation_, seen);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_) return;
    if (w < job_workers_) (*job_)(w);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

TeamLease::TeamLease(uint64_t wanted) {
  if (wanted <= 1 || team_held.exchange(true, std::memory_order_acquire)) {
    return;
  }
  // Never destroyed, so that no exit waits for its threads (a forked
  // death-test child has none).
  static WorkerPool* const team = new WorkerPool(AffinityCpus());
  team_ = team;
  width_ = static_cast<uint32_t>(std::min<uint64_t>(wanted, team->size()));
}

TeamLease::~TeamLease() {
  if (team_ != nullptr) team_held.store(false, std::memory_order_release);
}

void TeamLease::Run(uint32_t n, const std::function<void(uint32_t)>& fn) {
  DANA_CHECK(n <= width_) << n << " workers asked of a lease of " << width_;
  if (team_ != nullptr) return team_->Run(n, fn);
  if (n == 1) fn(0);
}

}  // namespace dana
