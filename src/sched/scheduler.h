#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/executor.h"

namespace dana::sched {

/// Queue-ordering policy for the accelerator slots.
enum class Policy : uint8_t {
  kFcfs,        ///< first come, first served (arrival order)
  kSjf,         ///< shortest job first (cost-model estimates, non-preemptive)
  kRoundRobin,  ///< round-robin across algorithms (per-workload fairness)
};

/// Short name for reporting ("fcfs", "sjf", "rr").
const char* PolicyName(Policy policy);

/// Parses "fcfs" / "sjf" / "rr"; InvalidArgument otherwise.
dana::Result<Policy> ParsePolicy(const std::string& name);

/// Priority class of a query. Interactive queries are latency-sensitive:
/// the preemptive scheduler dispatches them ahead of all batch work and,
/// when epoch-sliced preemption is armed, lets them preempt a running
/// batch training at its next epoch boundary. Batch queries are the long
/// training runs that absorb those preemptions. With preemption and the
/// batching window both off the class is recorded for SLO reporting but
/// does not change the schedule.
enum class QueryClass : uint8_t { kBatch, kInteractive };

/// Short name for reporting ("batch", "interactive").
const char* QueryClassName(QueryClass cls);

/// One analytics query request: "train <workload>'s UDF on its table",
/// arriving at a point of the simulated clock.
struct QueryRequest {
  uint64_t id = 0;
  std::string workload_id;
  dana::SimTime arrival;
  QueryClass query_class = QueryClass::kBatch;
};

/// Per-query outcome of a scheduled run.
struct QueryStat {
  uint64_t id = 0;
  std::string workload_id;
  QueryClass query_class = QueryClass::kBatch;
  /// Slot the run occupied (of its final slice, if it was preempted and
  /// resumed elsewhere).
  uint32_t slot = 0;
  dana::SimTime arrival;
  dana::SimTime start;       ///< first dispatch time (compile, if any, first)
  dana::SimTime completion;
  /// Compile time charged: the full latency on a cache miss, the residual
  /// wait when the design is still compiling on another slot, zero once it
  /// is cached.
  dana::SimTime compile;
  /// Slot occupancy of the batched run this query rode in (the whole
  /// batch's service across all of its slices, not a per-query share;
  /// excludes compile and context-switch costs).
  dana::SimTime service;
  bool compile_hit = false;
  /// Queries co-dispatched in this query's batch (1 = unbatched).
  uint32_t batch_size = 1;
  /// Attribution of the batch's service: the one-pass streaming time the
  /// batch amortized vs the engine time this query added.
  dana::SimTime shared_service;
  dana::SimTime private_service;
  /// Residency of the workload's table on the dispatch slot when this
  /// query's batch started (BatchExecution::warm_fraction): 0 = genuinely
  /// cold pool, 1 = fully warm repeat.
  double warm_fraction = 0.0;
  /// OS-tier share of the table at the same instant
  /// (BatchExecution::os_warm_fraction), exclusive of `warm_fraction`.
  /// Always 0 unless the executor runs a tiered hierarchy.
  double os_warm_fraction = 0.0;
  /// True when `warm_fraction` came from a tracked residency model (see
  /// BatchExecution::residency_modeled); static-cache executors report
  /// false and are excluded from warm-hit rates.
  bool residency_modeled = false;
  /// Times this query's run was preempted at an epoch boundary, and the
  /// summed context-switch cost those preemptions charged.
  uint32_t preemptions = 0;
  dana::SimTime preempt_overhead;

  dana::SimTime Wait() const { return start - arrival; }
  dana::SimTime Latency() const { return completion - arrival; }
  /// A warm hit is a run that found at least half its table resident —
  /// placement paid off for this query. Only meaningful when
  /// `residency_modeled`; report aggregates exclude unmodeled queries.
  bool WarmHit() const { return warm_fraction >= 0.5; }
};

/// Aggregate outcome of one scheduled request stream.
struct ScheduleReport {
  Policy policy = Policy::kFcfs;
  uint32_t slots = 1;
  std::vector<QueryStat> queries;  ///< in (first-)dispatch order
  dana::SimTime makespan;          ///< last completion on the simulated clock
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  /// Batched-dispatch accounting: number of accelerator passes issued, the
  /// streaming time charged once per pass, and the summed per-query engine
  /// time across all batch members.
  uint64_t batches = 0;
  dana::SimTime shared_service;
  dana::SimTime private_service;
  /// Preemption accounting: epoch-boundary preemptions performed and the
  /// summed context-switch (checkpoint + resume) cost they charged.
  uint64_t preemptions = 0;
  dana::SimTime preemption_overhead;

  /// Completed queries per simulated second.
  double ThroughputQps() const;
  dana::SimTime MeanLatency() const;
  dana::SimTime MeanWait() const;
  /// p in [0, 100]; linear interpolation (common/stats.h Percentile).
  dana::SimTime LatencyPercentile(double p) const;
  /// Queries per accelerator pass (1.0 when batching is off).
  double MeanBatchSize() const;
  /// Fraction of residency-modeled queries whose run found >= half its
  /// table resident on the dispatch slot (QueryStat::WarmHit). Queries
  /// from executors without a residency model report a static
  /// warm_fraction that says nothing about placement; they are excluded,
  /// and the rate is NaN when no query was modeled.
  double WarmHitRate() const;
  /// Mean warm fraction at dispatch over residency-modeled queries; NaN
  /// when no query was modeled.
  double MeanWarmFraction() const;
  /// Mean OS-tier fraction at dispatch over residency-modeled queries
  /// (QueryStat::os_warm_fraction); NaN when no query was modeled, 0 for
  /// untiered executors.
  double MeanOsWarmFraction() const;

  /// @name Per-class SLO accounting
  ///@{
  uint64_t ClassQueries(QueryClass cls) const;
  dana::SimTime ClassMeanLatency(QueryClass cls) const;
  dana::SimTime ClassLatencyPercentile(QueryClass cls, double p) const;
  /// Completed queries of `cls` per simulated second of the makespan.
  double ClassThroughputQps(QueryClass cls) const;
  ///@}
};

struct SchedulerOptions {
  uint32_t slots = 1;
  Policy policy = Policy::kFcfs;
  /// Cross-query batching: when a slot frees, up to this many co-resident
  /// queries of the head query's algorithm are dispatched as one batched
  /// accelerator pass. 1 disables batching and reproduces the per-query
  /// schedule bit-for-bit. Applies under every policy.
  uint32_t max_batch = 1;
  /// SJF aging bonus, in estimated-seconds forgiven per second of queue
  /// wait: a queued query's effective estimate is
  /// `estimate - weight * wait`, so long jobs cannot starve behind an
  /// endless stream of short ones. 0 (the default) keeps pure SJF.
  double sjf_aging_weight = 0.0;
  /// Slot-affinity dispatch. 0 (the default) reproduces the affinity-blind
  /// scheduler bit-for-bit: earliest-free slot, warmth ignored. > 0 turns
  /// placement on: the dispatched query runs on the free slot whose pool is
  /// warmest for its table (QueryExecutor::WarmFraction) instead of the
  /// earliest-free one. FCFS and RR keep their queue order (reordering for
  /// warmth trades older arrivals' wait for placement); SJF orders the
  /// queue by the executor's residency-aware estimate
  /// (QueryExecutor::EstimateAtWarmth at the best free slot's warmth) —
  /// the same cold/warm interpolation a dispatch is charged — so the
  /// discount is self-consistent instead of weight-tuned.
  double affinity_weight = 0.0;
  /// Epoch-sliced preemption. 0 (the default) runs every dispatch to
  /// completion as one slice. > 0 arms preemption: when an interactive
  /// query waits on a fully occupied machine, the longest-remaining batch-class run is checkpointed at its
  /// next epoch boundary — the next multiple of this many epochs of the
  /// run's *global* epoch count, so a resumed run keeps its original
  /// boundary phase instead of restarting the count from re-dispatch —
  /// and its remainder is re-enqueued with its epochs done,
  /// resuming — warm or cold, as residency dictates — when a slot frees.
  /// Equal-remaining victims tie-break by checkpoint-to-boundary distance
  /// (nearest usable boundary first), then least expected cold-resume
  /// residency loss, then slot index.
  uint32_t preemption_quantum_epochs = 0;
  /// Cost charged per preemption (model checkpoint write-back plus the
  /// resumed run's re-dispatch setup): the preempted slot stays occupied
  /// this much longer after the epoch boundary.
  dana::SimTime context_switch_cost = dana::SimTime::Zero();
  /// Batch-formation window: a freed slot holds its next batch-class
  /// dispatch up to this long while further same-algorithm arrivals join
  /// the batch, trading the head query's wait for batch amortization.
  /// Interactive arrivals seize held slots immediately. Zero (the
  /// default) dispatches the moment a slot frees.
  dana::SimTime batch_window = dana::SimTime::Zero();
  /// Telemetry sinks (not owned; both null by default = observability off
  /// at near-zero cost — every publish site is a pointer null-check).
  /// `metrics` receives the sched.* counter/gauge/histogram catalog (see
  /// README "Observability"); everything is derived from the simulated
  /// clock and the request stream, so two identical runs publish
  /// bit-identical snapshots. `tracer` records per-slot
  /// dispatch/slice/checkpoint/resume spans for chrome://tracing.
  obs::MetricRegistry* metrics = nullptr;
  obs::SlotTracer* tracer = nullptr;
};

/// Publishes `report`'s aggregate statistics into `metrics` as the
/// sched.* catalog: counters (sched.queries, sched.batches,
/// sched.compile.hits/misses, sched.preemptions), gauges
/// (sched.throughput_qps, sched.makespan_s, sched.warm_hit_rate, ...),
/// and histograms (sched.latency_s, sched.wait_s, sched.batch_size,
/// sched.warm_fraction, per-class sched.latency_s.<class>). A null
/// registry is a no-op. Scheduler::Run calls this automatically when
/// SchedulerOptions::metrics is set; it is exposed so reports built
/// elsewhere (replays, tests) can publish the same way.
void PublishReportMetrics(const ScheduleReport& report,
                          obs::MetricRegistry* metrics);

/// Discrete-event scheduler multiplexing N simulated accelerator slots
/// over an admission queue of query requests.
///
/// The simulation advances a single virtual clock: a request is admitted at
/// its arrival time, waits in the queue until a slot frees, then occupies
/// the slot for (compile +) service as reported by the executor. With
/// `max_batch > 1` the dispatch pulls further queued queries of the same
/// algorithm into one batched pass (one page-streaming sweep, shared by
/// every batch member; all members complete together). The compile-cache
/// model is per run: the first dispatch of each workload is a miss and pays
/// the compile latency; repeats hit and skip it, except that a repeat
/// dispatched while the first compile is still in flight on another slot
/// waits for it to finish.
///
/// One event-driven engine runs every configuration. Executions advance
/// through the executor's epoch-slice ABI (QueryExecutor::Begin): with
/// `preemption_quantum_epochs` and `batch_window` at zero each dispatch is
/// a single slice from start to completion; nonzero knobs let interactive
/// queries dispatch ahead of batch work and preempt it at epoch
/// boundaries, and let freed slots briefly hold for batch formation.
/// Determinism: ties break by arrival then request id (and by slot index),
/// so the same request stream always produces the same schedule — pinned
/// by the sched_golden suite and the tests/golden/sched_corpus scenarios.
class Scheduler {
 public:
  Scheduler(SchedulerOptions options, QueryExecutor* executor);

  /// Runs the whole request stream to completion and reports per-query and
  /// aggregate statistics. Requests need not be pre-sorted by arrival.
  dana::Result<ScheduleReport> Run(std::vector<QueryRequest> requests);

  /// Closed-loop (think-time) mode: each session issues the next query of
  /// its script only after its previous query completed plus `think_time`,
  /// modeling interactive analysts instead of an open Poisson stream.
  /// `sessions[s]` is session s's ordered workload-id script; every session
  /// submits its first query at time zero. Request ids number submissions
  /// in order (ties broken by session index).
  ///
  /// `session_classes` (optional) assigns each session a query class;
  /// empty defaults every session to kBatch. Sized, it must have one entry
  /// per session.
  ///
  /// The engine materializes each think-time submission at its
  /// predecessor's *completion event*, so preemption composes: submissions
  /// whose times depend on in-flight (possibly preempted) completions are
  /// admitted correctly, and interactive-class sessions preempt batch-class
  /// runs exactly as in the open-stream path.
  ///
  /// Limitation: the batch-formation window remains an open-stream
  /// feature — a formation hold defers completions that closed-loop
  /// submission times are derived from — so nonzero `batch_window` returns
  /// InvalidArgument (never aborts) naming the knob.
  dana::Result<ScheduleReport> RunClosedLoop(
      const std::vector<std::vector<std::string>>& sessions,
      dana::SimTime think_time,
      const std::vector<QueryClass>& session_classes = {});

 private:
  SchedulerOptions options_;
  QueryExecutor* executor_;
};

}  // namespace dana::sched
