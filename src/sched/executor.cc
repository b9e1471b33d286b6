#include "sched/executor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "ml/workloads.h"
#include "runtime/cost_model.h"

namespace dana::sched {

namespace {

/// Epochs each endpoint measurement simulates before linear extrapolation
/// (see DanaSystem::Options): 2 captures cold I/O + steady state.
constexpr uint32_t kMeasuredEpochs = 2;

runtime::DanaSystem::Options MakeSystemOptions() {
  runtime::DanaSystem::Options o;
  o.fpga = runtime::DefaultFpga();
  o.functional_epoch_cap = kMeasuredEpochs;
  return o;
}

}  // namespace

Result<WorkloadHandle> QueryExecutor::Resolve(const std::string& workload_id) {
  return WorkloadHandle{this, names_.Intern(workload_id)};
}

double QueryExecutor::WarmFractionOf(WorkloadHandle workload, uint32_t slot) {
  DANA_CHECK(workload.owner == this && workload.index < names_.size());
  return WarmFraction(names_.Name(workload.index), slot);
}

Result<dana::SimTime> QueryExecutor::EstimateAtWarmthOf(
    WorkloadHandle workload, double warm_fraction) {
  DANA_CHECK(workload.owner == this && workload.index < names_.size());
  return EstimateAtWarmth(names_.Name(workload.index), warm_fraction);
}

// ---------------------------------------------------------------------------
// DanaBatchExecution
// ---------------------------------------------------------------------------

/// Epoch-sliced resumable execution over the measured epoch profiles. All
/// slice costs derive from one cumulative cost curve per segment
/// (Cum(e) = overheads + first + steady * (e - 1)), so slices telescope:
/// any split reproduces the run-to-completion slice (NextSlice(0)) up to
/// float round-off. A Resume onto a slot whose residency differs from what
/// the run left re-bases the remaining epochs as a fresh segment at that
/// warmth — the first resumed epoch re-pays the evicted share of the
/// transient.
class DanaBatchExecution : public BatchExecution {
 public:
  DanaBatchExecution(DanaQueryExecutor* owner,
                     DanaQueryExecutor::WorkloadRecord* record,
                     QueryBatch batch,
                     DanaQueryExecutor::EpochProfile profile,
                     double warm_fraction, double os_warm_fraction)
      : BatchExecution(std::move(batch)),
        owner_(owner),
        record_(record),
        profile_(profile),
        warm_at_begin_(warm_fraction),
        os_warm_at_begin_(os_warm_fraction),
        last_left_(warm_fraction),
        last_os_left_(os_warm_fraction) {}

  uint32_t total_epochs() const override { return profile_.epochs; }
  uint32_t epochs_run() const override { return done_; }
  dana::SimTime compile_cost() const override { return profile_.compile; }
  double warm_fraction() const override { return warm_at_begin_; }
  bool residency_modeled() const override { return true; }
  double os_warm_fraction() const override { return os_warm_at_begin_; }

  dana::Result<SliceCost> NextSlice(uint32_t max_epochs) override {
    const uint32_t remaining = profile_.epochs - done_;
    if (remaining == 0) {
      return Status::FailedPrecondition("execution already finished");
    }
    const uint32_t n =
        max_epochs == 0 ? remaining : std::min(max_epochs, remaining);
    SliceCost s;
    s.service = CumWall(done_ + n) - CumWall(done_);
    s.shared = CumShared(done_ + n) - CumShared(done_);
    s.per_query = CumPerQuery(done_ + n) - CumPerQuery(done_);
    s.epochs = n;
    done_ += n;
    s.finished = done_ == profile_.epochs;
    // Each epoch sweeps the table once, so a k-epoch slice applies
    // min(k, 2) sweeps, not one: for a table that outsizes the pool the
    // second pass keeps pressing installs into co-located tables (clock
    // second chances spare some of their frames on the first pass only).
    // Two passes reach the repeat-pressure regime; later passes only
    // refine co-located decay. The cap is part of the model, not a host
    // cost bound: a sweep is applied run by run and is cheap, but a third
    // pass would change what the pool holds and so the simulated results.
    // For a pool-fitting table the second sweep is an all-hit no-op, so
    // single-epoch slices and fitting-table schedules are unchanged. The
    // slot's physical pool takes the sweeps for real (install + eviction).
    storage::BufferPool* pool = owner_->slot_pool(batch_.slot);
    const uint32_t tid = owner_->TableId(*record_, batch_.slot);
    const uint64_t norm_pages = record_->norm_pages;
    // Memoized repeat sweep: if nothing installed into (or cleared) this
    // pool since our previous slice swept it and the table is still fully
    // resident, the sweep would be all hits, so the O(pages) walk is
    // skipped. Under clock the skip is exact: every frame already holds
    // what it would hold after, with its reference bit already set, and
    // only the pool's hit/miss counters and last_table() diverge from the
    // unskipped run. Under LRU and promotional it is not: a hit reorders
    // recency without bumping version(), so another table's all-hit sweep
    // in between leaves an order the skipped sweep would have restored,
    // and later victims can differ from the unskipped run's. A table
    // larger than the pool is never fully resident and always re-sweeps
    // (the repeat walk moves the clock hand).
    const bool undisturbed = swept_pool_ == pool &&
                             pool->version() == swept_version_ &&
                             pool->resident_frames(tid) == norm_pages;
    if (undisturbed) {
      last_left_ = 1.0;     // fully resident, by the guard above
      last_os_left_ = 0.0;  // the tiers are exclusive
      obs::Count(owner_->options_.metrics, "exec.slices.memoized");
    } else {
      const uint32_t sweeps = std::min<uint32_t>(n, 2);
      for (uint32_t i = 0; i < sweeps; ++i) {
        pool->ScanTable(tid, norm_pages);
      }
      swept_pool_ = pool;
      swept_version_ = pool->version();
      last_left_ = owner_->PhysicalWarmFraction(*record_, batch_.slot);
      last_os_left_ =
          owner_->PhysicalOsWarmFraction(*record_, batch_.slot, last_left_);
    }
    return s;
  }

  dana::Result<dana::SimTime> PeekService(uint32_t epochs) const override {
    const uint32_t remaining = profile_.epochs - done_;
    const uint32_t n =
        epochs == 0 ? remaining : std::min(epochs, remaining);
    return CumWall(done_ + n) - CumWall(done_);
  }

  dana::Status Checkpoint() override {
    // The executor prices runs from measured epoch profiles and keeps no
    // model between slices (the scheduler reads only times), so there is
    // nothing to capture — the cost curve continues from `done_`.
    // Guard the contract anyway: a checkpoint is only meaningful at an
    // epoch boundary with work remaining.
    if (done_ == 0 || done_ >= profile_.epochs) {
      return Status::FailedPrecondition(
          "checkpoint requires a partially-run execution");
    }
    return Status::OK();
  }

  dana::Status Resume(uint32_t slot) override {
    // Residency of the resume slot, measured from its pool.
    const double warm = owner_->PhysicalWarmFraction(*record_, slot);
    const double os_warm =
        owner_->PhysicalOsWarmFraction(*record_, slot, warm);
    // Undisturbed same-slot resume: the table is exactly as resident (in
    // both tiers) as the last slice left it (last_left_/last_os_left_
    // captured that), so the original cost curve continues bit for bit.
    const double left_behind = done_ > 0 ? last_left_ : warm_at_begin_;
    const double os_left = done_ > 0 ? last_os_left_ : os_warm_at_begin_;
    if (slot == batch_.slot && warm == left_behind && os_warm == os_left) {
      return Status::OK();
    }
    // Re-base: the remaining epochs run as a fresh segment at the new
    // slot's warmth — its first epoch re-reads the missing share of the
    // table, later epochs return to the steady state.
    batch_.slot = slot;
    DANA_ASSIGN_OR_RETURN(
        DanaQueryExecutor::EpochProfile rebased,
        owner_->ProfileAt(*record_, batch_.size(), warm, os_warm));
    rebased.epochs = profile_.epochs;  // the budget never changes
    profile_ = rebased;
    base_ = done_;
    return Status::OK();
  }

 private:
  /// Cumulative slot occupancy of the first `e` epochs under the current
  /// segment (epochs before `base_` were charged under earlier segments
  /// and contribute zero here). The one-time query overhead belongs to the
  /// segment that runs epoch 0.
  dana::SimTime CumWall(uint32_t e) const {
    if (e <= base_) return dana::SimTime::Zero();
    const double k = static_cast<double>(e - base_);
    dana::SimTime t = profile_.epoch_overhead * k + profile_.first_wall +
                      profile_.steady_wall * (k - 1);
    if (base_ == 0) t += profile_.query_overhead;
    return t;
  }
  dana::SimTime CumShared(uint32_t e) const {
    if (e <= base_) return dana::SimTime::Zero();
    const double k = static_cast<double>(e - base_);
    dana::SimTime t = profile_.epoch_overhead * k + profile_.first_shared +
                      profile_.steady_shared * (k - 1);
    if (base_ == 0) t += profile_.query_overhead;
    return t;
  }
  dana::SimTime CumPerQuery(uint32_t e) const {
    if (e <= base_) return dana::SimTime::Zero();
    const double k = static_cast<double>(e - base_);
    return profile_.first_pq + profile_.steady_pq * (k - 1);
  }

  DanaQueryExecutor* owner_;
  DanaQueryExecutor::WorkloadRecord* record_;
  DanaQueryExecutor::EpochProfile profile_;
  double warm_at_begin_;
  double os_warm_at_begin_;
  /// Residency the last slice left on its slot (warm_at_begin_ until the
  /// first slice) — the "undisturbed" reference a Resume compares against.
  double last_left_;
  /// OS-tier share the last slice left behind, the tier-1 companion to
  /// last_left_ (always 0 without an OS tier).
  double last_os_left_;
  uint32_t done_ = 0;
  uint32_t base_ = 0;  ///< absolute epoch index the current segment starts at
  /// Pool and version stamp of this execution's most recent real sweep;
  /// a later slice seeing the same pool at the same version knows no
  /// install or clear happened in between (the memoized-sweep guard).
  const storage::BufferPool* swept_pool_ = nullptr;
  uint64_t swept_version_ = 0;
};

// ---------------------------------------------------------------------------
// DanaQueryExecutor
// ---------------------------------------------------------------------------

namespace {
/// Page size of the shared residency pools. Pure bookkeeping units: the
/// pools sweep logical tables and hold no bytes, so this only converts
/// `pool_frames` into the BufferPool byte-capacity constructor. Matches the
/// workload tables' 32 KB pages for consistency.
constexpr uint32_t kSharedPoolPageSize = 32 * 1024;

/// Normalizes option combinations before any member reads them: at least
/// one pool frame, and the OS tier exists only under an evicting policy.
/// The shared slot pools are swept data-free, and a clock sweep never
/// consults its (inclusive, admit-until-full) OS tier, so under clock
/// `os_frames` is forced off rather than silently priced as a tier the
/// pools don't run.
DanaQueryExecutor::Options NormalizeExecOptions(
    DanaQueryExecutor::Options o) {
  o.pool_frames = std::max<uint64_t>(o.pool_frames, 1);
  if (o.eviction == storage::EvictionKind::kClock) o.os_frames = 0;
  return o;
}
}  // namespace

DanaQueryExecutor::DanaQueryExecutor() : DanaQueryExecutor(Options{}) {}

DanaQueryExecutor::DanaQueryExecutor(Options options)
    : options_(NormalizeExecOptions(options)),
      system_(cost_model_, MakeSystemOptions()) {
  slot_pool(0);
}

storage::BufferPool* DanaQueryExecutor::slot_pool(uint32_t slot) {
  while (slot_pools_.size() <= slot) {
    slot_pools_.push_back(std::make_unique<storage::BufferPool>(
        options_.pool_frames * kSharedPoolPageSize, kSharedPoolPageSize,
        storage::DiskModel{}, options_.os_frames * kSharedPoolPageSize,
        options_.eviction));
  }
  return slot_pools_[slot].get();
}

void DanaQueryExecutor::PrepareSlots(uint32_t slots) {
  if (slots > 0) slot_pool(slots - 1);
}

void DanaQueryExecutor::ResetResidency() {
  for (const std::unique_ptr<storage::BufferPool>& pool : slot_pools_) {
    pool->Clear();
    pool->ResetStats();
  }
}

void DanaQueryExecutor::PublishGauges(obs::MetricRegistry* metrics) const {
  obs::MetricRegistry* sink = metrics != nullptr ? metrics : options_.metrics;
  if (sink == nullptr) return;
  compile_cache_.PublishTo(sink);
  storage::BufferPoolStats total;
  uint64_t resident = 0;
  for (const std::unique_ptr<storage::BufferPool>& pool : slot_pools_) {
    const storage::BufferPoolStats& s = pool->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.io_time += s.io_time;
    resident += pool->resident_frames();
  }
  obs::SetGauge(sink, "pool.hits", static_cast<double>(total.hits));
  obs::SetGauge(sink, "pool.misses", static_cast<double>(total.misses));
  obs::SetGauge(sink, "pool.evictions", static_cast<double>(total.evictions));
  obs::SetGauge(sink, "pool.hit_rate", total.HitRate());
  obs::SetGauge(sink, "pool.io_time_s", total.io_time.seconds());
  obs::SetGauge(sink, "pool.resident_frames", static_cast<double>(resident));
  for (size_t i = 0; i < slot_pools_.size(); ++i) {
    slot_pools_[i]->PublishTo(sink, "pool.slot" + std::to_string(i));
  }
}

Result<WorkloadHandle> DanaQueryExecutor::Resolve(
    const std::string& workload_id) {
  uint32_t index = record_ids_.Find(workload_id);
  if (index == dana::Interner::kInvalidId) {
    const ml::Workload* w = ml::FindWorkload(workload_id);
    if (w == nullptr) {
      return Status::NotFound("unknown workload '" + workload_id + "'");
    }
    index = record_ids_.Intern(workload_id);
    records_.emplace_back().name = workload_id;
    records_.back().workload = w;
  }
  return WorkloadHandle{this, index};
}

DanaQueryExecutor::WorkloadRecord& DanaQueryExecutor::Record(
    WorkloadHandle workload) {
  DANA_CHECK(workload.owner == this && workload.index < records_.size());
  return records_[workload.index];
}

Result<DanaQueryExecutor::WorkloadRecord*> DanaQueryExecutor::RecordFor(
    const QueryBatch& batch) {
  if (batch.handle.owner == this) return &Record(batch.handle);
  DANA_ASSIGN_OR_RETURN(WorkloadHandle handle, Resolve(batch.workload_id));
  return &Record(handle);
}

Result<runtime::WorkloadInstance*> DanaQueryExecutor::Instance(
    WorkloadRecord& rec) {
  if (rec.instance == nullptr) {
    DANA_ASSIGN_OR_RETURN(
        rec.instance, runtime::WorkloadInstance::CreateShape(*rec.workload));
    rec.norm_pages = rec.instance->NormalizedPages(options_.pool_frames);
  }
  return rec.instance.get();
}

uint32_t DanaQueryExecutor::TableId(WorkloadRecord& rec, uint32_t slot) {
  if (slot >= rec.table_ids.size()) {
    rec.table_ids.resize(slot + 1, dana::Interner::kInvalidId);
  }
  uint32_t& id = rec.table_ids[slot];
  if (id == dana::Interner::kInvalidId) {
    id = slot_pool(slot)->InternTable(rec.name);
  }
  return id;
}

Result<const DanaQueryExecutor::EpochProfile*>
DanaQueryExecutor::MeasureEndpoint(WorkloadRecord& rec, uint32_t batch_size,
                                   runtime::CacheState cache) {
  if (batch_size >= rec.endpoints.size()) rec.endpoints.resize(batch_size + 1);
  std::unique_ptr<EpochProfile>& memo =
      rec.endpoints[batch_size][static_cast<size_t>(cache)];
  if (memo != nullptr) return memo.get();
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance, Instance(rec));
  DANA_ASSIGN_OR_RETURN(
      const compiler::CompiledUdf* udf,
      compile_cache_.GetOrCompile(
          rec.name, [&] { return system_.Compile(*instance); }));
  // Measure the batched pass once, from the instance's pool prepared to
  // `cache`: a batch of this size at this endpoint takes the same time on
  // every slot.
  DANA_ASSIGN_OR_RETURN(
      runtime::SystemResult result,
      system_.TimeCompiled(*udf, instance, cache, batch_size));
  obs::Count(options_.metrics, "exec.endpoint_measurements");
  memo = std::make_unique<EpochProfile>();
  EpochProfile& p = *memo;
  // A compile-cache miss costs DSL translation, hardware generation, static
  // scheduling and programming the configuration FSM: "hundreds of
  // milliseconds", large enough that cache hits visibly matter, small
  // against multi-second training runs.
  constexpr dana::SimTime kCompileLatency = dana::SimTime::Millis(400);
  p.compile = kCompileLatency;
  p.first_wall = result.first_epoch.wall;
  p.steady_wall = result.steady_epoch.wall;
  p.first_shared = result.first_epoch.shared;
  p.steady_shared = result.steady_epoch.shared;
  p.first_pq = result.first_epoch.per_query;
  p.steady_pq = result.steady_epoch.per_query;
  p.query_overhead = result.query_overhead;
  p.epoch_overhead = result.epoch_overhead;
  p.epochs = std::max<uint32_t>(result.epochs, 1);
  return &p;
}

Result<DanaQueryExecutor::EpochProfile> DanaQueryExecutor::ProfileAt(
    WorkloadRecord& rec, uint32_t batch_size, double warm_fraction,
    double os_fraction) {
  const auto measure = [&](runtime::CacheState cache) {
    return MeasureEndpoint(rec, batch_size, cache);
  };
  if (warm_fraction >= 1.0) {
    DANA_ASSIGN_OR_RETURN(const EpochProfile* hot,
                          measure(runtime::CacheState::kWarm));
    return *hot;
  }
  if (os_fraction <= 0.0) {
    // Two-endpoint pricing, the pre-tier arithmetic bit for bit.
    if (warm_fraction <= 0.0) {
      DANA_ASSIGN_OR_RETURN(
          const EpochProfile* cold,
          measure(runtime::CacheState::kCold));
      return *cold;
    }
    // The two measured endpoints bound the run — a fraction f of the table
    // still resident saves f of the cold run's extra (I/O-side) time, so
    // every epoch-cost component interpolates linearly between them.
    DANA_ASSIGN_OR_RETURN(const EpochProfile* cold,
                          measure(runtime::CacheState::kCold));
    DANA_ASSIGN_OR_RETURN(const EpochProfile* hot,
                          measure(runtime::CacheState::kWarm));
    const double miss = 1.0 - warm_fraction;
    EpochProfile p = *hot;
    p.first_wall =
        hot->first_wall + (cold->first_wall - hot->first_wall) * miss;
    p.steady_wall =
        hot->steady_wall + (cold->steady_wall - hot->steady_wall) * miss;
    p.first_shared =
        hot->first_shared + (cold->first_shared - hot->first_shared) * miss;
    p.steady_shared =
        hot->steady_shared + (cold->steady_shared - hot->steady_shared) * miss;
    p.first_pq = hot->first_pq + (cold->first_pq - hot->first_pq) * miss;
    p.steady_pq = hot->steady_pq + (cold->steady_pq - hot->steady_pq) * miss;
    return p;
  }
  // Three-endpoint pricing: the run splits into a pool-warm share `p`
  // (priced at the pool-warm endpoint), an OS-cached share `o` (priced at
  // the os-warm endpoint — pages re-read from the modeled kernel cache, no
  // device I/O), and the cold remainder. Each epoch-cost component is the
  // convex combination of the three measured endpoints.
  const double pw = std::clamp(warm_fraction, 0.0, 1.0);
  const double ow = std::min(std::max(os_fraction, 0.0), 1.0 - pw);
  const double cw = 1.0 - pw - ow;
  DANA_ASSIGN_OR_RETURN(const EpochProfile* hot,
                        measure(runtime::CacheState::kWarm));
  DANA_ASSIGN_OR_RETURN(const EpochProfile* osw,
                        measure(runtime::CacheState::kOsCached));
  DANA_ASSIGN_OR_RETURN(const EpochProfile* cold,
                        measure(runtime::CacheState::kCold));
  EpochProfile p = *hot;
  const auto mix = [pw, ow, cw](dana::SimTime h, dana::SimTime o,
                                dana::SimTime c) {
    return h * pw + o * ow + c * cw;
  };
  p.first_wall = mix(hot->first_wall, osw->first_wall, cold->first_wall);
  p.steady_wall = mix(hot->steady_wall, osw->steady_wall, cold->steady_wall);
  p.first_shared =
      mix(hot->first_shared, osw->first_shared, cold->first_shared);
  p.steady_shared =
      mix(hot->steady_shared, osw->steady_shared, cold->steady_shared);
  p.first_pq = mix(hot->first_pq, osw->first_pq, cold->first_pq);
  p.steady_pq = mix(hot->steady_pq, osw->steady_pq, cold->steady_pq);
  return p;
}

Result<std::unique_ptr<BatchExecution>> DanaQueryExecutor::Begin(
    const QueryBatch& batch) {
  if (batch.query_ids.empty()) {
    return Status::InvalidArgument("empty batch for workload '" +
                                   batch.workload_id + "'");
  }
  DANA_ASSIGN_OR_RETURN(WorkloadRecord * rec, RecordFor(batch));
  DANA_RETURN_NOT_OK(Instance(*rec).status());
  // Price this slot's actual cache state, measured from its shared
  // physical pool. With an OS tier, the working set splits three ways:
  // pool-warm, os-warm (demoted pages still in the modeled kernel cache)
  // and cold.
  const double warm = PhysicalWarmFraction(*rec, batch.slot);
  const double os_warm = PhysicalOsWarmFraction(*rec, batch.slot, warm);
  obs::Count(options_.metrics,
             warm >= 1.0 ? "exec.charges.warm"
             : (warm <= 0.0 && os_warm <= 0.0)
                 ? "exec.charges.cold"
                 : "exec.charges.partial");
  DANA_ASSIGN_OR_RETURN(
      EpochProfile profile,
      ProfileAt(*rec, batch.size(), warm, os_warm));
  return std::unique_ptr<BatchExecution>(
      new DanaBatchExecution(this, rec, batch, profile, warm, os_warm));
}

double DanaQueryExecutor::PhysicalWarmFraction(WorkloadRecord& rec,
                                               uint32_t slot) {
  if (!Instance(rec).ok()) return 0.0;
  return slot_pool(slot)->ResidentShare(TableId(rec, slot), rec.norm_pages);
}

double DanaQueryExecutor::PhysicalOsWarmFraction(WorkloadRecord& rec,
                                                 uint32_t slot,
                                                 double pool_warm) {
  if (options_.os_frames == 0) return 0.0;
  if (!Instance(rec).ok()) return 0.0;
  const double share = slot_pool(slot)->TierResidentShare(
      storage::BufferPool::kOsTier, TableId(rec, slot), rec.norm_pages);
  // The tiers are exclusive by construction; the clamp only guards float
  // edge cases so the pricing shares always sum to at most 1.
  return std::min(share, 1.0 - pool_warm);
}

double DanaQueryExecutor::WarmFraction(const std::string& workload_id,
                                       uint32_t slot) {
  auto handle = Resolve(workload_id);
  return handle.ok() ? WarmFractionOf(*handle, slot) : 0.0;
}

double DanaQueryExecutor::WarmFractionOf(WorkloadHandle workload,
                                         uint32_t slot) {
  // Placement heuristic: an os-warm page is cheaper than cold but dearer
  // than pool-warm, so it counts at half weight. Without an OS tier this
  // is exactly the pool residency.
  WorkloadRecord& rec = Record(workload);
  const double w = PhysicalWarmFraction(rec, slot);
  if (options_.os_frames == 0) return w;
  return std::min(1.0, w + 0.5 * PhysicalOsWarmFraction(rec, slot, w));
}

Result<dana::SimTime> DanaQueryExecutor::Estimate(
    const std::string& workload_id) {
  DANA_ASSIGN_OR_RETURN(WorkloadHandle handle, Resolve(workload_id));
  return runtime::EstimateDanaRuntime(*Record(handle).workload, cost_model_,
                                      system_.options().fpga.axi_bytes_per_sec);
}

Result<dana::SimTime> DanaQueryExecutor::EstimateAtWarmth(
    const std::string& workload_id, double warm_fraction) {
  DANA_ASSIGN_OR_RETURN(WorkloadHandle handle, Resolve(workload_id));
  return EstimateAtWarmthOf(handle, warm_fraction);
}

Result<dana::SimTime> DanaQueryExecutor::EstimateAtWarmthOf(
    WorkloadHandle workload, double warm_fraction) {
  // Purely a-priori, like Estimate(): the cold/warm interpolation comes
  // from the cost model (the table's missing share re-read from disk in
  // the first epoch), never from measured state — queue ordering must not
  // depend on which endpoints earlier dispatches happened to memoize.
  return runtime::EstimateDanaRuntimeAtWarmth(
      *Record(workload).workload, cost_model_,
      system_.options().fpga.axi_bytes_per_sec, warm_fraction);
}

}  // namespace dana::sched
