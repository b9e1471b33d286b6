#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "runtime/systems.h"
#include "sched/compile_cache.h"
#include "storage/buffer_pool.h"

namespace dana::ml {
struct Workload;
}  // namespace dana::ml

namespace dana::sched {

/// A batch of same-algorithm queries the scheduler co-dispatches onto one
/// accelerator slot: one page-streaming pass feeds every query's execution
/// engines. Size 1 is the ordinary per-query dispatch.
struct QueryBatch {
  std::string workload_id;
  /// Request ids of the co-dispatched queries, in dispatch order.
  std::vector<uint64_t> query_ids;
  /// Slot the batch runs on; selects the slot's execution context
  /// (its private buffer pool).
  uint32_t slot = 0;

  uint32_t size() const { return static_cast<uint32_t>(query_ids.size()); }

  /// Convenience single-query batch.
  static QueryBatch Single(std::string workload, uint64_t id = 0,
                           uint32_t slot = 0) {
    QueryBatch b;
    b.workload_id = std::move(workload);
    b.query_ids = {id};
    b.slot = slot;
    return b;
  }
};

/// Costs of running one batch on one accelerator slot.
struct BatchCost {
  /// Slot occupancy of the whole batched run (query overheads included).
  dana::SimTime service;
  /// Residency of the workload's table on the dispatch slot when the run
  /// started, in [0, 1]: 0 is a genuinely cold pool (first use of the slot
  /// for this table, or fully evicted since), 1 a fully warm repeat.
  /// Executors without a residency model report their static cache state.
  double warm_fraction = 0.0;
  /// Fraction of the workload's table held by the dispatch slot's modeled
  /// OS page-cache tier when the run started, exclusive of
  /// `warm_fraction`'s pool share. Always 0 unless the executor runs with
  /// an OS tier (Options::os_frames > 0 under lru/promotional eviction).
  double os_warm_fraction = 0.0;
  /// True when `warm_fraction` comes from a tracked residency model; false
  /// for executors that report a static cache state (their constant value
  /// says nothing about placement and must not skew warm-hit rates).
  bool residency_modeled = false;
  /// Attribution of `service`: `shared` is the one page-streaming sweep
  /// every co-batched query amortizes; `per_query` is the incremental
  /// engine-merge time each co-trained model adds. For a batch of 1 the
  /// two sum to approximately `service`.
  dana::SimTime shared;
  dana::SimTime per_query;
  /// Additional one-time compile latency a compile-cache miss pays; the
  /// scheduler charges it on the first dispatch of each algorithm and
  /// skips it on every repeat.
  dana::SimTime compile;
};

/// Cost of one contiguous run of epochs (a slice) of a batch execution.
/// Attribution follows BatchCost: `service` is the slot occupancy of just
/// this slice; summed over any split of a run, slices reproduce the
/// unsegmented BatchCost::service bit for bit (the costs telescope).
struct SliceCost {
  dana::SimTime service;
  dana::SimTime shared;
  dana::SimTime per_query;
  uint32_t epochs = 0;   ///< epochs this slice consumed
  bool finished = false; ///< no epochs remain after this slice
};

/// A resumable in-flight batch run: the execution-handle half of the
/// scheduler/executor ABI. `Begin` creates one; the scheduler then either
/// drains it in one `NextSlice(0)` call (run to completion — what the
/// `Dispatch` wrapper does) or advances it quantum by quantum, checkpoints
/// it at an epoch boundary, and resumes the remainder later, possibly on a
/// different slot. All costs are deterministic in (workload, batch size,
/// slot residency), so peeking never perturbs the schedule.
class BatchExecution {
 public:
  explicit BatchExecution(QueryBatch batch) : batch_(std::move(batch)) {}
  virtual ~BatchExecution() = default;

  const QueryBatch& batch() const { return batch_; }
  uint32_t slot() const { return batch_.slot; }

  /// Total epochs this run executes; executions without epoch structure
  /// (the default single-slice wrapper) report 1 and are not preemptible.
  virtual uint32_t total_epochs() const = 0;
  virtual uint32_t epochs_run() const = 0;
  bool finished() const { return epochs_run() >= total_epochs(); }

  /// One-time compile latency on a compile-cache miss (BatchCost::compile).
  virtual dana::SimTime compile_cost() const = 0;
  /// Residency of the table on the dispatch slot when the run began
  /// (BatchCost::warm_fraction), and whether a model tracked it.
  virtual double warm_fraction() const = 0;
  virtual bool residency_modeled() const = 0;
  /// OS-tier share of the table when the run began
  /// (BatchCost::os_warm_fraction); 0 for executors without a tiered
  /// hierarchy.
  virtual double os_warm_fraction() const { return 0.0; }

  /// Advances up to `max_epochs` further epochs (0 = all remaining) and
  /// returns this slice's cost. Residency-modeling executors sweep their
  /// pool once per epoch run, capped at two passes per slice (cache state
  /// is near-stationary after the second pass).
  virtual dana::Result<SliceCost> NextSlice(uint32_t max_epochs) = 0;

  /// Slot occupancy of the next `epochs` epochs (0 = all remaining)
  /// without advancing — the scheduler uses this to plan completions and
  /// locate epoch boundaries in simulated time.
  virtual dana::Result<dana::SimTime> PeekService(uint32_t epochs) const = 0;

  /// Marks the current epoch boundary as a checkpoint: the model state is
  /// captured so the remainder can be re-dispatched later. The scheduler
  /// charges its configurable context-switch cost on top.
  virtual dana::Status Checkpoint() = 0;

  /// Re-binds the execution to `slot` before its next slice (resume after
  /// preemption). Implementations re-price the remaining epochs from the
  /// new slot's residency: resuming where the table is still resident is
  /// warm, a cold slot pays the first-epoch transient again. Resuming the
  /// same slot with residency undisturbed continues the original cost
  /// curve bit for bit.
  virtual dana::Status Resume(uint32_t slot) = 0;

 protected:
  QueryBatch batch_;
};

/// What the scheduler needs from an execution backend: real (simulated)
/// batched service costs at dispatch time and cheap estimates for
/// shortest-job-first admission ordering. Estimates must not run the query.
///
/// The ABI is the execution-handle model: `Begin` opens a resumable
/// `BatchExecution` which the scheduler advances in epoch slices.
/// `Dispatch` is the thin run-to-completion wrapper over it, kept so
/// callers that never preempt (and the golden scheduler suite) stay valid.
/// A concrete executor must override at least one of the two — each
/// default is implemented in terms of the other: executors with epoch
/// structure override `Begin` (and inherit run-to-completion `Dispatch`);
/// simple cost models override `Dispatch` (and `Begin` wraps the whole run
/// in one indivisible slice).
class QueryExecutor {
 public:
  virtual ~QueryExecutor() = default;

  /// The true cost of running `batch` once (invoked at dispatch). All
  /// queries in the batch share one pass; implementations must be
  /// deterministic in (workload_id, batch size). Default: Begin + one
  /// full slice.
  virtual dana::Result<BatchCost> Dispatch(const QueryBatch& batch);

  /// Opens a resumable execution handle for `batch`. Default: wraps
  /// `Dispatch`'s cost in a single indivisible slice (not preemptible).
  virtual dana::Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch);

  /// A-priori service estimate of a single query for queue ordering (SJF).
  /// May be coarse but must be deterministic and cheap.
  virtual dana::Result<dana::SimTime> Estimate(
      const std::string& workload_id) = 0;

  /// Residency-aware estimate: the expected service of a single query
  /// dispatched while `warm_fraction` of its table is resident,
  /// interpolated the same way Dispatch charges it. The scheduler's
  /// affinity SJF orders the queue by this instead of a weight-tuned
  /// discount. Default ignores warmth (static executors).
  virtual dana::Result<dana::SimTime> EstimateAtWarmth(
      const std::string& workload_id, double warm_fraction) {
    (void)warm_fraction;
    return Estimate(workload_id);
  }

  /// Residency of `workload_id`'s table on `slot`'s buffer pool, in [0, 1],
  /// *without* running anything. The scheduler's affinity dispatch consults
  /// this when choosing among free slots and queued candidates. The default
  /// models no residency: every slot always looks cold.
  virtual double WarmFraction(const std::string& workload_id, uint32_t slot) {
    (void)workload_id;
    (void)slot;
    return 0.0;
  }

  /// Pre-sizes any per-slot state for `slots` slots, so lazily-grown
  /// per-slot containers (e.g. a pool group's vector) never grow mid-run.
  /// Default: no per-slot state.
  virtual void PrepareSlots(uint32_t slots) { (void)slots; }

 private:
  /// Detects a subclass overriding neither Dispatch nor Begin: the two
  /// defaults are implemented in terms of each other, and this flag turns
  /// the would-be infinite recursion into an Unimplemented status.
  bool resolving_default_ = false;
};

/// Executor backed by the DAnA cycle-level simulator over the Table 3
/// workload suite.
///
/// Service times are measured by actually compiling and training through
/// `runtime::DanaSystem` (so the scheduler multiplexes real simulated
/// accelerator runs, not analytical guesses), then memoized per
/// (workload, batch size, cache endpoint) as an *epoch profile*: the first
/// epoch carries the cold-I/O transient, every later epoch repeats the
/// steady state, and fixed query/epoch overheads sit on top. Full-run and
/// sliced costs both derive from one cumulative cost curve over that
/// profile, so any split of a run into epoch slices telescopes to exactly
/// the unsegmented service. Compiled designs live in a CompileCache so
/// `compiler::Compile` runs once per algorithm no matter how many queries
/// reference it. Each slot trains against its own buffer pool from the
/// instance's pool group (per-slot execution contexts).
///
/// Cache realism: the executor keeps one *physical* shared
/// storage::BufferPool per slot (sized in frames, shared across that
/// slot's tables in scale-normalized units — WorkloadInstance::
/// NormalizedPages) and prices every run from what is actually resident:
/// a slot's first run of a workload is charged the genuinely cold service
/// (nothing resident), a repeat on the same slot the warm one, and a
/// partially-evicted slot (other tables' sweeps installed over its frames)
/// a linear interpolation between the two measured endpoints — I/O shrinks
/// in proportion to the frames still resident. Every slice of every
/// execution sweeps the slot's shared pool (ScanTable), so the pool's
/// resident_frames()/last_table()/eviction order are the ground truth:
/// DAnA's Striders read RDBMS pages straight out of the buffer pool, so
/// placement cost comes from measured occupancy, not a model of it. This
/// is the executor's only pricing path. A preempted run's table stays
/// resident until an intervening sweep evicts it — resuming on the same
/// slot is warm, resuming elsewhere is cold — and WarmFraction() exposes
/// the pool so affinity dispatch can route resumed work back to its warm
/// slot.
///
/// Single-threaded: the scheduler's event loop calls it inline.
class DanaQueryExecutor : public QueryExecutor {
 public:
  struct Options {
    /// Simulated wall-clock cost of a compile-cache miss: DSL translation,
    /// hardware generation, static scheduling, and configuring the FPGA's
    /// configuration FSM with the new design. Calibrated to "hundreds of
    /// milliseconds" — large enough that cache hits visibly matter, small
    /// against multi-second training runs.
    dana::SimTime compile_latency = dana::SimTime::Millis(400);
    /// Frames in each slot's shared residency pool, the pool every
    /// dispatch is priced from. Scale-normalized units: a workload's sweep
    /// touches PoolSizeRatio() * pool_frames logical pages, so this is
    /// pure resolution — warm fractions quantize to 1/pages — not a byte
    /// budget. 4096 keeps quantization below 0.1% for every Table 3 ratio
    /// while a sweep stays cheap.
    uint64_t pool_frames = 4096;
    /// Replacement policy of each slot's shared pool (and of its OS tier
    /// when one is configured). kClock is the pinned legacy hierarchy —
    /// bit-for-bit the seed pools; the endpoint-measurement instance pools
    /// always stay clock regardless (endpoints are canonical cache-state
    /// costs, not policy-dependent).
    storage::EvictionKind eviction = storage::EvictionKind::kClock;
    /// Frames of the modeled OS page-cache tier below each slot's shared
    /// pool, in the same scale-normalized units as pool_frames. 0 (the
    /// default) = no tier, the two-endpoint pricing bit for bit. With a
    /// tier (requires lru/promotional eviction — clock keeps the legacy
    /// Fetch-path set, which the shared pools' data-free sweeps never
    /// consult), pool victims demote into it, tier hits promote back, and
    /// dispatches are priced across three measured endpoints
    /// (pool-warm / os-warm / cold).
    uint64_t os_frames = 0;
    /// Functional epochs actually simulated before linear extrapolation
    /// (see DanaSystem::Options); 2 captures cold I/O + steady state.
    uint32_t functional_epoch_cap = 2;
    /// Telemetry sink (not owned; null = off). Begin() counts each
    /// dispatch's pricing regime (exec.charges.cold/warm/partial) and
    /// MeasureEndpoint counts actual simulator runs
    /// (exec.endpoint_measurements); PublishGauges() snapshots the compile
    /// cache and slot pools into the same registry on demand.
    obs::MetricRegistry* metrics = nullptr;
  };

  /// Per-epoch cost profile of one (workload, batch size) at one cache
  /// endpoint, measured once through the cycle-level simulator. A run of
  /// e >= 1 epochs costs
  ///   query_overhead + epoch_overhead * e + first_wall
  ///     + steady_wall * (e - 1)
  /// and the shared/per-query attributions decompose the same way.
  struct EpochProfile {
    dana::SimTime first_wall, steady_wall;
    dana::SimTime first_shared, steady_shared;
    dana::SimTime first_pq, steady_pq;
    dana::SimTime query_overhead, epoch_overhead;
    uint32_t epochs = 1;  ///< the run's epoch budget E
    dana::SimTime compile;
  };

  DanaQueryExecutor();
  explicit DanaQueryExecutor(Options options);

  dana::Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) override;
  dana::Result<dana::SimTime> Estimate(const std::string& workload_id) override;
  dana::Result<dana::SimTime> EstimateAtWarmth(const std::string& workload_id,
                                               double warm_fraction) override;
  double WarmFraction(const std::string& workload_id, uint32_t slot) override;
  void PrepareSlots(uint32_t slots) override { slot_pools_.Resize(slots); }

  const CompileCache& compile_cache() const { return compile_cache_; }
  /// Slot `slot`'s shared physical residency pool (created on demand) —
  /// the ground truth for placement: per-table resident frames,
  /// last_table(), and eviction order are readable directly.
  storage::BufferPool* slot_pool(uint32_t slot) {
    return slot_pools_.pool(slot);
  }
  /// Forgets all slot residency (fresh cold slot pools) while keeping
  /// measured service endpoints and compiled designs. Sweeps call this
  /// between configurations so every run starts from the same cold
  /// machine.
  void ResetResidency() { slot_pools_.ClearAll(); }
  /// Snapshots the executor's caches into `metrics` as gauges: the compile
  /// cache under `compile_cache.` and the per-slot shared pools under
  /// `pool.` (rollup + per-slot breakdown). Call after a run — gauges are
  /// set-on-publish, so the snapshot reflects the registry at call time.
  /// Null registry (or defaulted to the Options sink) is a no-op.
  void PublishGauges(obs::MetricRegistry* metrics = nullptr) const {
    obs::MetricRegistry* sink =
        metrics != nullptr ? metrics : options_.metrics;
    if (sink == nullptr) return;
    compile_cache_.PublishTo(sink);
    slot_pools_.PublishTo(sink);
  }

 private:
  friend class DanaBatchExecution;

  dana::Result<runtime::WorkloadInstance*> Instance(const std::string& id);
  /// `id`'s registry entry, memoized (ml::FindWorkload is a linear scan);
  /// NotFound for unknown workloads.
  dana::Result<const ml::Workload*> RegistryWorkload(const std::string& id);
  /// Measured residency of `id` on `slot`'s shared pool: the table's
  /// resident frames over its normalized footprint. 0 when the workload is
  /// unknown (the later Begin/Estimate reports the error properly).
  double PhysicalWarmFraction(const std::string& id, uint32_t slot);
  /// Measured OS-tier share of `id` on `slot` (tier 1 resident frames over
  /// the normalized footprint), clamped so pool + OS shares never exceed 1.
  /// 0 without a configured OS tier.
  double PhysicalOsWarmFraction(const std::string& id, uint32_t slot,
                                double pool_warm);
  /// Measured (or memoized) epoch profile at a cache endpoint.
  dana::Result<const EpochProfile*> MeasureEndpoint(const QueryBatch& batch,
                                                    runtime::CacheState cache);
  /// Profile charged at `warm_fraction` pool residency plus
  /// `os_fraction` OS-tier residency: one measured endpoint when fully
  /// warm/cold, otherwise the linear mix of the pool-warm, os-warm, and
  /// cold endpoints (the os-warm endpoint is only measured when
  /// os_fraction > 0 — two-endpoint pricing is reproduced bit for bit
  /// otherwise).
  dana::Result<EpochProfile> ProfileAt(const QueryBatch& batch,
                                       double warm_fraction,
                                       double os_fraction = 0.0);

  Options options_;
  runtime::CpuCostModel cost_model_;
  runtime::DanaSystem system_;
  CompileCache compile_cache_;
  /// One shared physical pool per slot, sized in `Options::pool_frames`
  /// scale-normalized frames: every workload's sweep passes through its
  /// slot's pool, so cross-table eviction is measured, not modeled.
  storage::BufferPoolGroup slot_pools_;
  std::map<std::string, std::unique_ptr<runtime::WorkloadInstance>>
      instances_;
  /// Measured epoch profiles, keyed by (workload, batch size, cache
  /// endpoint). Measuring an endpoint runs the cycle-level simulator, so
  /// each key is measured once; a failed measurement is not stored and
  /// the next request retries. Returned pointers stay valid (std::map
  /// nodes never move).
  std::map<std::tuple<std::string, uint32_t, uint8_t>, EpochProfile>
      measured_;
  /// Registry lookups memoized per name: ml::FindWorkload is a linear scan
  /// with string compares, and Estimate/EstimateAtWarmth run once per
  /// queued candidate per dispatch under affinity SJF. Values are pointers
  /// into the static registry, valid for the process lifetime.
  std::unordered_map<std::string, const ml::Workload*> workload_cache_;
};

}  // namespace dana::sched
