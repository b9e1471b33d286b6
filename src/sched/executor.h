#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/intern.h"
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

class QueryExecutor;

/// A workload resolved by one executor (QueryExecutor::Resolve): a dense
/// index into that executor's per-workload table, so the per-event calls
/// that take it skip the name lookup. Only the issuing executor (`owner`)
/// may read `index`; a default-constructed handle belongs to no executor.
struct WorkloadHandle {
  const QueryExecutor* owner = nullptr;
  uint32_t index = 0;
};

/// A batch of same-algorithm queries the scheduler co-dispatches onto one
/// accelerator slot: one page-streaming pass feeds every query's execution
/// engines. Size 1 is the ordinary per-query dispatch.
struct QueryBatch {
  std::string workload_id;
  /// `workload_id` as resolved by the executor the batch is handed to.
  /// An executor that did not issue it (a decorator forwarding the batch,
  /// or a batch built by `Single`) resolves `workload_id` instead.
  WorkloadHandle handle;
  /// Request ids of the co-dispatched queries, in dispatch order.
  std::vector<uint64_t> query_ids;
  /// Slot the batch runs on; selects the slot's shared residency pool
  /// the dispatch is priced from.
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

/// Cost of one contiguous run of epochs (a slice) of a batch execution.
/// `service` is the slot occupancy of just this slice; summed over any
/// split of a run, slices reproduce the run-to-completion slice's service
/// (the costs telescope). `shared` is the part of it spent in the one
/// page-streaming sweep every co-batched query amortizes, `per_query` the
/// incremental engine-merge time each co-trained model adds; for a batch
/// of 1 the two sum to approximately `service`.
struct SliceCost {
  dana::SimTime service;
  dana::SimTime shared;
  dana::SimTime per_query;
  uint32_t epochs = 0;   ///< epochs this slice consumed
  bool finished = false; ///< no epochs remain after this slice
};

/// A resumable in-flight batch run, the only way a batch runs: `Begin`
/// creates one; the caller then either drains it in one `NextSlice(0)`
/// call (run to completion) or advances it quantum by quantum, checkpoints
/// it at an epoch boundary, and resumes the remainder later, possibly on a
/// different slot. All costs are deterministic in (workload, batch size,
/// slot residency), so peeking never perturbs the schedule.
class BatchExecution {
 public:
  explicit BatchExecution(QueryBatch batch) : batch_(std::move(batch)) {}
  virtual ~BatchExecution() = default;

  const QueryBatch& batch() const { return batch_; }
  uint32_t slot() const { return batch_.slot; }

  /// Total epochs this run executes; a run of 1 epoch has no interior
  /// boundary and is not preemptible.
  virtual uint32_t total_epochs() const = 0;
  virtual uint32_t epochs_run() const = 0;
  bool finished() const { return epochs_run() >= total_epochs(); }

  /// Additional one-time compile latency a compile-cache miss pays; the
  /// scheduler charges it on the first dispatch of each algorithm and
  /// skips it on every repeat.
  virtual dana::SimTime compile_cost() const = 0;
  /// Residency of the table on the dispatch slot when the run began, in
  /// [0, 1]: 0 is a genuinely cold pool (first use of the slot for this
  /// table, or fully evicted since), 1 a fully warm repeat.
  virtual double warm_fraction() const = 0;
  /// True when `warm_fraction` comes from a tracked residency model; false
  /// for executors that report a static cache state (their constant value
  /// says nothing about placement and must not skew warm-hit rates).
  virtual bool residency_modeled() const = 0;
  /// Fraction of the table held by the dispatch slot's modeled OS
  /// page-cache tier when the run began, exclusive of `warm_fraction`'s
  /// pool share; 0 for executors without a tiered hierarchy.
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
/// There is one way to run a batch: `Begin` opens a resumable
/// `BatchExecution`, which the scheduler advances in epoch slices; running
/// it to completion is one `NextSlice(0)`.
///
/// Workloads are named by string at the boundary and by handle inside a
/// run: the scheduler calls `Resolve` once per distinct workload before
/// its first event, then passes the handle in every `QueryBatch` and to
/// the handle-keyed `WarmFractionOf`/`EstimateAtWarmthOf`. The base
/// class's `Resolve` accepts any name, and its handle-keyed forms forward
/// to the string overloads, so an executor (or a decorator) that only
/// overrides the string forms sees exactly the calls it always did. An
/// executor that overrides `Resolve` overrides the handle-keyed forms too.
class QueryExecutor {
 public:
  virtual ~QueryExecutor() = default;

  /// This executor's handle for `workload_id`, stable for the executor's
  /// lifetime (resolving a name twice returns the same handle). NotFound
  /// when the executor knows it cannot run the workload. Must be cheap: it
  /// may not run, measure or build anything. Default: accepts every name.
  virtual dana::Result<WorkloadHandle> Resolve(const std::string& workload_id);

  /// Opens a resumable execution of `batch` (invoked at dispatch). All
  /// queries in the batch share one pass; its costs must be deterministic
  /// in (workload, batch size, slot residency).
  virtual dana::Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) = 0;

  /// A-priori service estimate of a single query for queue ordering (SJF).
  /// May be coarse but must be deterministic and cheap.
  virtual dana::Result<dana::SimTime> Estimate(
      const std::string& workload_id) = 0;

  /// Residency-aware estimate: the expected service of a single query
  /// dispatched while `warm_fraction` of its table is resident,
  /// interpolated the same way Begin prices it. The scheduler's
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

  /// @name Handle-keyed forms
  /// The per-event calls by a handle this executor's `Resolve` issued.
  /// Each default forwards to its string overload above.
  ///@{
  virtual double WarmFractionOf(WorkloadHandle workload, uint32_t slot);
  virtual dana::Result<dana::SimTime> EstimateAtWarmthOf(
      WorkloadHandle workload, double warm_fraction);
  ///@}

  /// Pre-sizes any per-slot state for `slots` slots, so lazily-grown
  /// per-slot state (e.g. one pool per slot) is all built before the run.
  /// Default: no per-slot state.
  virtual void PrepareSlots(uint32_t slots) { (void)slots; }

 private:
  /// Names the default `Resolve` issued handles for, by handle index.
  dana::Interner names_;
};

/// Executor backed by the DAnA cycle-level simulator over the Table 3
/// workload suite.
///
/// Service times are measured by actually compiling and running the
/// cycle-level accelerator simulator through `runtime::DanaSystem` (so the
/// scheduler multiplexes real simulated accelerator runs, not analytical
/// guesses). The scheduler reads only times, and they depend on the table's
/// page layout alone, so a workload is priced from its *shape*: a shape
/// instance (WorkloadInstance::CreateShape, no dataset generated) timed by
/// DanaSystem::TimeCompiled (nothing trained, no loss computed), bit for
/// bit the times a functional run reports. A workload whose run length
/// depends on trained values (a convergence test) cannot be timed this way
/// and fails its first measurement with FailedPrecondition. Measurements
/// are memoized per (workload, batch size, cache endpoint) as an *epoch
/// profile*: the first epoch carries the cold-I/O transient, every later
/// epoch repeats the steady state, and fixed query/epoch overheads sit on
/// top. Full-run and sliced costs both derive from one cumulative cost
/// curve over that profile, so any split of a run into epoch slices
/// telescopes to exactly the unsegmented service. The accelerator
/// simulator always runs whole: a preempted run is re-priced, never
/// resumed inside the simulator. Compiled designs live in a CompileCache so
/// `compiler::Compile` runs once per algorithm no matter how many queries
/// reference it. Endpoints are measured from the shape instance's one
/// buffer pool, prepared to the endpoint's cache state before each
/// measurement, so a measured endpoint holds for every slot.
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
/// slot. Slot pools are built on a slot's first use (or by PrepareSlots)
/// and are never dropped; PublishGauges sums their counters into the
/// `pool.*` rollup.
///
/// Workload state lives in one record per handle: the registry entry
/// (`Resolve` checks only the registry and builds nothing), the lazily
/// created WorkloadInstance and its normalized page count, the table's id
/// in each slot pool, and the measured endpoints by (batch size, cache
/// state). Every pricing call reads its record by index; the string
/// overloads resolve the name and forward, so there is one pricing path,
/// and a DanaBatchExecution holds its record, so slices and resumes never
/// look a name up.
///
/// Single-threaded: the scheduler's event loop calls it inline.
class DanaQueryExecutor : public QueryExecutor {
 public:
  struct Options {
    /// Frames in each slot's shared residency pool, the pool every
    /// dispatch is priced from. Scale-normalized units: a workload's sweep
    /// touches PoolSizeRatio() * pool_frames logical pages, so this is
    /// pure resolution — warm fractions quantize to 1/pages — not a byte
    /// budget. 4096 keeps quantization below 0.1% for every Table 3 ratio
    /// while a sweep stays cheap.
    uint64_t pool_frames = 4096;
    /// Replacement policy of each slot's shared pool (and of its OS tier
    /// when one is configured). kClock is the pinned legacy hierarchy —
    /// bit-for-bit the seed pools; the shape instance's pool, which
    /// measures the endpoints, always stays clock regardless (endpoints are
    /// canonical cache-state costs, not policy-dependent).
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

  /// NotFound, naming the workload, when the registry has no such id.
  dana::Result<WorkloadHandle> Resolve(const std::string& workload_id) override;
  dana::Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) override;
  dana::Result<dana::SimTime> Estimate(const std::string& workload_id) override;
  dana::Result<dana::SimTime> EstimateAtWarmth(const std::string& workload_id,
                                               double warm_fraction) override;
  double WarmFraction(const std::string& workload_id, uint32_t slot) override;
  double WarmFractionOf(WorkloadHandle workload, uint32_t slot) override;
  dana::Result<dana::SimTime> EstimateAtWarmthOf(WorkloadHandle workload,
                                                 double warm_fraction) override;
  void PrepareSlots(uint32_t slots) override;

  const CompileCache& compile_cache() const { return compile_cache_; }
  /// Slot `slot`'s shared physical residency pool, built on first use
  /// along with every lower slot's — the ground truth for placement:
  /// per-table resident frames, last_table(), and eviction order are
  /// readable directly. The pointer stays valid for the executor's
  /// lifetime.
  storage::BufferPool* slot_pool(uint32_t slot);
  /// Forgets all slot residency (fresh cold slot pools, statistics
  /// zeroed) while keeping measured service endpoints and compiled
  /// designs. Sweeps call this between configurations so every run starts
  /// from the same cold machine.
  void ResetResidency();
  /// Snapshots the executor's caches into `metrics` as gauges: the compile
  /// cache under `compile_cache.`, and the slot pools under `pool.` — the
  /// sums over every slot of hits, misses, evictions, io_time_s and
  /// resident_frames, the hit rate of the summed counts, and each slot's
  /// pool under `pool.slot<i>.` (BufferPool::PublishTo, per-tier gauges
  /// included). Call after a run — gauges are set-on-publish, so the
  /// snapshot reflects the registry at call time. Null registry (or
  /// defaulted to the Options sink) is a no-op.
  void PublishGauges(obs::MetricRegistry* metrics = nullptr) const;

 private:
  friend class DanaBatchExecution;

  static constexpr size_t kCacheStates =
      static_cast<size_t>(runtime::CacheState::kOsCached) + 1;

  /// Everything the executor keeps per resolved workload (see the class
  /// comment); `records_[handle.index]`.
  struct WorkloadRecord {
    std::string name;
    const ml::Workload* workload = nullptr;  ///< static registry entry
    /// The shape instance, built on first need; null until then.
    std::unique_ptr<runtime::WorkloadInstance> instance;
    uint64_t norm_pages = 0;  ///< NormalizedPages, set with `instance`
    /// The table's id in slot s's pool, interned on the slot's first use.
    std::vector<uint32_t> table_ids;
    /// Measured epoch profiles, `endpoints[batch size][cache state]`. A
    /// measurement runs the cycle-level simulator, so each is taken once;
    /// a failed one is not stored and the next request retries. Profiles
    /// are heap nodes, so returned pointers survive the vector growing.
    std::vector<std::array<std::unique_ptr<EpochProfile>, kCacheStates>>
        endpoints;
  };

  /// The record `workload` names; it must be a handle this executor issued.
  WorkloadRecord& Record(WorkloadHandle workload);
  /// The batch's record: its handle when this executor issued it, else its
  /// name resolved.
  dana::Result<WorkloadRecord*> RecordFor(const QueryBatch& batch);
  dana::Result<runtime::WorkloadInstance*> Instance(WorkloadRecord& rec);
  /// `rec`'s table id in `slot`'s shared pool.
  uint32_t TableId(WorkloadRecord& rec, uint32_t slot);
  /// Measured residency of `rec` on `slot`'s shared pool: the table's
  /// resident frames over its normalized footprint. 0 when the instance
  /// cannot be built (the later Begin reports the error properly).
  double PhysicalWarmFraction(WorkloadRecord& rec, uint32_t slot);
  /// Measured OS-tier share of `rec` on `slot` (tier 1 resident frames
  /// over the normalized footprint), clamped so pool + OS shares never
  /// exceed 1. 0 without a configured OS tier.
  double PhysicalOsWarmFraction(WorkloadRecord& rec, uint32_t slot,
                                double pool_warm);
  /// Measured (or memoized) epoch profile of a `batch_size` batch at a
  /// cache endpoint, measured from the shape instance's pool.
  dana::Result<const EpochProfile*> MeasureEndpoint(WorkloadRecord& rec,
                                                    uint32_t batch_size,
                                                    runtime::CacheState cache);
  /// Profile charged at `warm_fraction` pool residency plus
  /// `os_fraction` OS-tier residency: one measured endpoint when fully
  /// warm/cold, otherwise the linear mix of the pool-warm, os-warm, and
  /// cold endpoints (the os-warm endpoint is only measured when
  /// os_fraction > 0 — two-endpoint pricing is reproduced bit for bit
  /// otherwise).
  dana::Result<EpochProfile> ProfileAt(WorkloadRecord& rec,
                                       uint32_t batch_size,
                                       double warm_fraction,
                                       double os_fraction);

  Options options_;
  runtime::CpuCostModel cost_model_;
  runtime::DanaSystem system_;
  CompileCache compile_cache_;
  /// One shared physical pool per slot, `slot_pools_[slot]`, sized in
  /// `Options::pool_frames` scale-normalized frames with the Options'
  /// eviction and OS tier: every workload's sweep passes through its
  /// slot's pool, so cross-table eviction is measured, not modeled. Slot 0
  /// exists from construction; each pool is its own heap object, so
  /// slot_pool() pointers survive later slots being added.
  std::vector<std::unique_ptr<storage::BufferPool>> slot_pools_;
  /// Handle index by name, and the records it indexes (a deque, so a
  /// DanaBatchExecution's record pointer survives later resolves).
  dana::Interner record_ids_;
  std::deque<WorkloadRecord> records_;
};

}  // namespace dana::sched
