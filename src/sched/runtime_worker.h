#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "sched/executor.h"

namespace dana::sched {

/// Fixed set of per-slot worker threads for the scheduler's threaded
/// runtime (`SchedulerOptions::runtime_mode = kThreaded`): slot i's worker
/// owns slot i's execution context and pulls work items off its own
/// mutex/condvar admission queue in FIFO order. The *policy* (which batch
/// goes to which slot, in what order) stays with the scheduling loop —
/// workers execute what they are handed, which is exactly the partition
/// that keeps per-slot pool state safe without locks.
class SlotWorkerPool {
 public:
  explicit SlotWorkerPool(uint32_t slots);
  /// Drains every queue (pending items still run) and joins the threads.
  ~SlotWorkerPool();

  SlotWorkerPool(const SlotWorkerPool&) = delete;
  SlotWorkerPool& operator=(const SlotWorkerPool&) = delete;

  /// Enqueues `fn` on slot `slot`'s admission queue. The worker runs items
  /// in admission order. Out-of-range slots are clamped into the pool so a
  /// misconfigured caller degrades to serialization, never UB.
  void Post(uint32_t slot, std::function<void()> fn);

  uint32_t slots() const { return static_cast<uint32_t>(workers_.size()); }

 private:
  struct Worker {
    dana::Mutex mu;
    dana::CondVar cv;
    std::deque<std::function<void()>> queue GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    std::thread thread;
  };

  void RunWorker(Worker* w);

  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Single-use result cell a poster blocks on until the worker delivers:
/// the wait handle half of handing work to a slot worker. The Set/Wait
/// pair establishes the happens-before edge that makes the worker's writes
/// visible to the waiter.
template <typename T>
class WaitCell {
 public:
  void Set(T value) {
    {
      dana::MutexLock lock(mu_);
      value_.emplace(std::move(value));
    }
    cv_.NotifyAll();
  }

  /// Blocks until Set, then returns the value (moved out; call once).
  T Take() {
    dana::MutexLock lock(mu_);
    while (!value_.has_value()) cv_.Wait(mu_);
    T out = std::move(*value_);
    value_.reset();
    return out;
  }

 private:
  dana::Mutex mu_;
  dana::CondVar cv_;
  std::optional<T> value_ GUARDED_BY(mu_);
};

/// Runs `fn` on `slot`'s worker thread and blocks for its value.
template <typename T>
T RunOnSlot(SlotWorkerPool* workers, uint32_t slot, std::function<T()> fn) {
  auto cell = std::make_shared<WaitCell<T>>();
  workers->Post(slot, [cell, fn = std::move(fn)] { cell->Set(fn()); });
  return cell->Take();
}

/// Executor adapter that routes every execution-state-mutating call onto
/// the owning slot's worker thread and blocks for the result, leaving
/// decision-time reads (estimates, warm fractions) on the calling thread.
/// This is how the scheduler's engine runs in threaded mode: the event
/// loop keeps making decisions in oracle order while each slot's pricing,
/// slices, and resume re-pricing execute on that slot's thread. Because every forwarded call is awaited before the
/// loop proceeds, the schedule is identical to the simulated oracle's by
/// construction — the parity contract `runtime_mode` promises.
class WorkerProxyExecutor : public QueryExecutor {
 public:
  WorkerProxyExecutor(QueryExecutor* inner, SlotWorkerPool* workers)
      : inner_(inner), workers_(workers) {}

  dana::Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) override;

  dana::Result<dana::SimTime> Estimate(const std::string& workload_id) override {
    return inner_->Estimate(workload_id);
  }
  dana::Result<dana::SimTime> EstimateAtWarmth(const std::string& workload_id,
                                               double warm_fraction) override {
    return inner_->EstimateAtWarmth(workload_id, warm_fraction);
  }
  double WarmFraction(const std::string& workload_id, uint32_t slot) override {
    return inner_->WarmFraction(workload_id, slot);
  }
  void PrepareSlots(uint32_t slots) override { inner_->PrepareSlots(slots); }

 private:
  QueryExecutor* inner_;
  SlotWorkerPool* workers_;
};

}  // namespace dana::sched
