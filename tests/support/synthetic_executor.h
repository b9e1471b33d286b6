#pragma once

// The synthetic executor the scheduler suites, their golden corpora and
// bench_micro_sched drive, and a run-to-completion helper for executor
// tests. Header-only, so a bench can include it without a test library.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/intern.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "sched/executor.h"

namespace dana::sched {

/// Deterministic epoch-sliced costs from a per-workload spec: each of a
/// batch's `epochs` epochs occupies its slot for
/// SimTime::Seconds(shared_s + per_query_s * K), K the batch size. Warmth
/// is pinned per (workload, slot) and never changes, and Resume only
/// re-binds the slot. A workload without a spec fails with NotFound.
class SyntheticExecutor : public QueryExecutor {
 public:
  struct Spec {
    uint32_t epochs = 1;
    double shared_s = 0.0;
    double per_query_s = 0.0;
    double estimate_s = 0.0;
    double compile_s = 0.0;
    /// The fully-warm estimate: EstimateAtWarmth interpolates between it
    /// and `estimate_s` (cold). Unset, estimates ignore warmth.
    std::optional<double> warm_estimate_s = std::nullopt;
  };

  void Set(const std::string& id, Spec spec) { Entry(id).spec = spec; }

  /// Pins `id`'s warmth on `slot` (0 elsewhere). Its runs report their
  /// warmth as residency-modelled unless `modeled` is false, as a
  /// static-cache executor's would.
  void SetWarm(const std::string& id, uint32_t slot, double fraction,
               bool modeled = true) {
    Workload& w = Entry(id);
    if (w.warmth.size() <= slot) w.warmth.resize(slot + 1, 0.0);
    w.warmth[slot] = fraction;
    w.modeled = modeled;
  }

  /// Batches begun so far.
  uint64_t begun() const { return begun_; }

  Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) override {
    DANA_ASSIGN_OR_RETURN(const Workload* w, Find(batch.workload_id));
    ++begun_;
    return std::unique_ptr<BatchExecution>(new Execution(
        batch, w->spec, WarmOn(*w, batch.slot), w->modeled));
  }

  Result<SimTime> Estimate(const std::string& id) override {
    DANA_ASSIGN_OR_RETURN(const Workload* w, Find(id));
    return SimTime::Seconds(w->spec.estimate_s);
  }

  Result<SimTime> EstimateAtWarmth(const std::string& id,
                                   double warm_fraction) override {
    DANA_ASSIGN_OR_RETURN(const Workload* w, Find(id));
    const SimTime cold = SimTime::Seconds(w->spec.estimate_s);
    if (!w->spec.warm_estimate_s) return cold;
    const SimTime warm = SimTime::Seconds(*w->spec.warm_estimate_s);
    return warm + (cold - warm) * (1.0 - warm_fraction);
  }

  double WarmFraction(const std::string& id, uint32_t slot) override {
    const uint32_t index = ids_.Find(id);
    return index == Interner::kInvalidId ? 0.0
                                         : WarmOn(workloads_[index], slot);
  }

 private:
  struct Workload {
    Spec spec;
    std::vector<double> warmth;  ///< by slot
    bool modeled = false;
  };

  class Execution : public BatchExecution {
   public:
    Execution(QueryBatch batch, const Spec& spec, double warm, bool modeled)
        : BatchExecution(std::move(batch)),
          spec_(spec),
          warm_(warm),
          modeled_(modeled) {}

    uint32_t total_epochs() const override { return spec_.epochs; }
    uint32_t epochs_run() const override { return done_; }
    SimTime compile_cost() const override {
      return SimTime::Seconds(spec_.compile_s);
    }
    double warm_fraction() const override { return warm_; }
    bool residency_modeled() const override { return modeled_; }

    Result<SliceCost> NextSlice(uint32_t max_epochs) override {
      if (done_ == spec_.epochs) {
        return Status::FailedPrecondition("execution already finished");
      }
      const uint32_t n = Epochs(max_epochs);
      SliceCost s;
      s.epochs = n;
      s.service = EpochCost() * static_cast<double>(n);
      s.shared = SimTime::Seconds(spec_.shared_s) * static_cast<double>(n);
      s.per_query =
          SimTime::Seconds(spec_.per_query_s) * static_cast<double>(n);
      done_ += n;
      s.finished = done_ == spec_.epochs;
      return s;
    }

    Result<SimTime> PeekService(uint32_t epochs) const override {
      return EpochCost() * static_cast<double>(Epochs(epochs));
    }

    Status Checkpoint() override { return Status::OK(); }
    Status Resume(uint32_t slot) override {
      batch_.slot = slot;
      return Status::OK();
    }

   private:
    /// Epochs a slice of up to `max_epochs` (0 = all) runs.
    uint32_t Epochs(uint32_t max_epochs) const {
      const uint32_t remaining = spec_.epochs - done_;
      return max_epochs == 0 ? remaining : std::min(max_epochs, remaining);
    }
    SimTime EpochCost() const {
      return SimTime::Seconds(spec_.shared_s +
                              spec_.per_query_s * batch_.size());
    }

    Spec spec_;
    double warm_;
    bool modeled_;
    uint32_t done_ = 0;
  };

  Workload& Entry(const std::string& id) {
    const uint32_t index = ids_.Intern(id);
    if (index == workloads_.size()) workloads_.emplace_back();
    return workloads_[index];
  }
  Result<const Workload*> Find(const std::string& id) const {
    const uint32_t index = ids_.Find(id);
    if (index == Interner::kInvalidId) return Status::NotFound(id);
    return &workloads_[index];
  }
  static double WarmOn(const Workload& w, uint32_t slot) {
    return slot < w.warmth.size() ? w.warmth[slot] : 0.0;
  }

  Interner ids_;
  std::vector<Workload> workloads_;
  uint64_t begun_ = 0;
};

/// A batch run to completion: its execution, for the residency it began
/// at, and the one slice that drained it.
struct WholeRun {
  std::unique_ptr<BatchExecution> exec;
  SliceCost slice;
};

inline Result<WholeRun> RunWhole(QueryExecutor& executor,
                                 const QueryBatch& batch) {
  WholeRun run;
  DANA_ASSIGN_OR_RETURN(run.exec, executor.Begin(batch));
  DANA_ASSIGN_OR_RETURN(run.slice, run.exec->NextSlice(0));
  return run;
}

}  // namespace dana::sched
