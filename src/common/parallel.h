#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace dana {

/// Tells the CPU that the caller is polling (x86 `pause`).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Paces a polling loop: the first kPolls polls only relax the CPU; later
/// ones yield it, so that a worker the caller waits for gets to run when
/// the host is oversubscribed.
class Backoff {
 public:
  /// About 40 us of `pause` on a 4-core Sapphire Rapids VM (~20 ns each).
  /// The worker team (TeamLease) polls this long for its holder's next job
  /// before it sleeps: with 256 polls (about 5 us) it fell asleep within an
  /// S/E LRMF batch's per-batch ops, which made that batch about 40% slower.
  static constexpr int kPolls = 2048;

  void Pause() {
    if (polls_ < kPolls) {
      ++polls_;
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

 private:
  int polls_ = 0;
};

/// A fixed team of threads that runs one job at a time together with the
/// calling thread, which is worker 0. The threads start with the pool and
/// sleep between jobs, so a job costs a wake-up, not a thread start. Host
/// code borrows the process's one pool through TeamLease.
///
/// Results must not depend on the worker count: callers give each worker
/// disjoint outputs and combine them in a fixed order afterwards.
class WorkerPool {
 public:
  /// Starts `workers - 1` threads, or fewer if the system refuses one
  /// (`std::system_error`): the pool then runs with what it has.
  explicit WorkerPool(uint32_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers available to Run: the started threads plus the caller.
  uint32_t size() const { return static_cast<uint32_t>(threads_.size()) + 1; }

  /// Runs fn(w) for every w in [0, n) and returns when all have returned;
  /// fn(0) runs on the calling thread. Requires n <= size(). Whatever the
  /// workers wrote is visible to the caller on return.
  void Run(uint32_t n, const std::function<void(uint32_t)>& fn);

 private:
  void Loop(uint32_t w);

  /// The posted job; written by Run before it bumps `generation_`.
  const std::function<void(uint32_t)>* job_ = nullptr;
  uint32_t job_workers_ = 0;
  bool stop_ = false;
  /// Bumped once per job (and once to stop); the threads wait on it.
  std::atomic<uint32_t> generation_{0};
  /// Threads that have not yet finished the current job; Run waits on it.
  std::atomic<uint32_t> pending_{0};
  /// Declared last, so the destructor joins the threads before anything
  /// they read goes away.
  std::vector<std::jthread> threads_;
};

/// The process's one worker team, borrowed by one caller at a time: a
/// WorkerPool with a worker per CPU of the first borrower's affinity mask,
/// started then and kept until exit. A lease made while another is held (by
/// another thread, or from inside a team job, whose caller holds one) has
/// width 1: its jobs run on its caller alone.
class TeamLease {
 public:
  /// Borrows the team for up to `wanted` workers; wanting one leaves it free.
  explicit TeamLease(uint64_t wanted);
  ~TeamLease();

  TeamLease(const TeamLease&) = delete;
  TeamLease& operator=(const TeamLease&) = delete;

  /// min(wanted, team size) while this lease holds the team, else 1.
  uint32_t width() const { return width_; }

  /// WorkerPool::Run on the team. Requires n <= width().
  void Run(uint32_t n, const std::function<void(uint32_t)>& fn);

 private:
  WorkerPool* team_ = nullptr;  // null unless this lease holds the team
  uint32_t width_ = 1;
};

}  // namespace dana
