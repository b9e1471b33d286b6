#include "sched/runtime_worker.h"

namespace dana::sched {

SlotWorkerPool::SlotWorkerPool(uint32_t slots) {
  if (slots == 0) slots = 1;
  workers_.reserve(slots);
  for (uint32_t i = 0; i < slots; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn after the vector is fully built: threads only ever touch their
  // own Worker struct through the stable unique_ptr.
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { RunWorker(worker); });
  }
}

SlotWorkerPool::~SlotWorkerPool() {
  for (auto& w : workers_) {
    {
      dana::MutexLock lock(w->mu);
      w->stop = true;
    }
    w->cv.NotifyAll();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void SlotWorkerPool::Post(uint32_t slot, std::function<void()> fn) {
  Worker* w = workers_[slot % workers_.size()].get();
  {
    dana::MutexLock lock(w->mu);
    w->queue.push_back(std::move(fn));
  }
  w->cv.NotifyAll();
}

void SlotWorkerPool::RunWorker(Worker* w) {
  for (;;) {
    std::function<void()> item;
    {
      dana::MutexLock lock(w->mu);
      // Explicit predicate loop so the guarded reads stay inside this
      // REQUIRES-checked scope (a wait-predicate lambda would not be).
      while (!w->stop && w->queue.empty()) w->cv.Wait(w->mu);
      if (w->queue.empty()) return;  // stop requested and queue drained
      item = std::move(w->queue.front());
      w->queue.pop_front();
    }
    item();
  }
}

namespace {

/// Execution handle that forwards state-mutating calls to the owning
/// slot's worker. Resume(slot) runs on the *new* slot's worker — the
/// re-pricing reads that slot's pool — and subsequent slices follow the
/// execution there. Const peeks stay on the calling thread: every prior
/// mutation was awaited through a WaitCell, so its writes are visible.
class WorkerProxyExecution : public BatchExecution {
 public:
  WorkerProxyExecution(std::unique_ptr<BatchExecution> inner,
                       SlotWorkerPool* workers)
      : BatchExecution(inner->batch()),
        inner_(std::move(inner)),
        workers_(workers) {}

  uint32_t total_epochs() const override { return inner_->total_epochs(); }
  uint32_t epochs_run() const override { return inner_->epochs_run(); }
  dana::SimTime compile_cost() const override { return inner_->compile_cost(); }
  double warm_fraction() const override { return inner_->warm_fraction(); }
  bool residency_modeled() const override {
    return inner_->residency_modeled();
  }
  double os_warm_fraction() const override {
    return inner_->os_warm_fraction();
  }

  dana::Result<SliceCost> NextSlice(uint32_t max_epochs) override {
    return RunOnSlot<dana::Result<SliceCost>>(
        workers_, inner_->slot(),
        [this, max_epochs] { return inner_->NextSlice(max_epochs); });
  }

  dana::Result<dana::SimTime> PeekService(uint32_t epochs) const override {
    return inner_->PeekService(epochs);
  }

  dana::Status Checkpoint() override {
    return RunOnSlot<dana::Status>(workers_, inner_->slot(),
                                   [this] { return inner_->Checkpoint(); });
  }

  dana::Status Resume(uint32_t slot) override {
    dana::Status st = RunOnSlot<dana::Status>(
        workers_, slot, [this, slot] { return inner_->Resume(slot); });
    if (st.ok()) batch_.slot = slot;
    return st;
  }

 private:
  std::unique_ptr<BatchExecution> inner_;
  SlotWorkerPool* workers_;
};

}  // namespace

dana::Result<std::unique_ptr<BatchExecution>> WorkerProxyExecutor::Begin(
    const QueryBatch& batch) {
  auto begun = RunOnSlot<dana::Result<std::unique_ptr<BatchExecution>>>(
      workers_, batch.slot, [this, &batch] { return inner_->Begin(batch); });
  if (!begun.ok()) return begun.status();
  return std::unique_ptr<BatchExecution>(new WorkerProxyExecution(
      std::move(begun).ValueOrDie(), workers_));
}

}  // namespace dana::sched
