// sched_open and sched_preempt_tiered: one open-loop request stream
// multiplexed onto four simulated accelerator slots by sched::Scheduler over
// the real DanaQueryExecutor. Setup measures every service endpoint the
// stream needs (a warm-up rep); each timed rep then replays the identical
// stream from cold slots, so Scheduler::Run's host time is the event loop
// plus the executor's pricing and pool sweeps.
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/stats.h"
#include "e2e.h"
#include "layers.h"
#include "ml/workloads.h"
#include "obs/metrics.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"

namespace dana::e2e {
namespace {

constexpr double kZipfExponent = 0.99;

/// Layers the timing decorator files executor calls under.
struct ExecLayers {
  explicit ExecLayers(Spans* spans)
      : begin(spans->layer("sched.exec.begin")),
        warm_fraction(spans->layer("sched.exec.warm_fraction")),
        estimate(spans->layer("sched.exec.estimate")),
        peek(spans->layer("sched.exec.peek")),
        slice(spans->layer("sched.exec.slice")),
        ckpt_resume(spans->layer("sched.exec.ckpt_resume")),
        measure(spans->layer("sched.exec.measure")) {}
  Spans::Layer* begin;
  Spans::Layer* warm_fraction;
  Spans::Layer* estimate;
  Spans::Layer* peek;
  Spans::Layer* slice;
  Spans::Layer* ckpt_resume;
  /// Calls during which the executor ran the accelerator simulator to
  /// measure a service endpoint (exec.endpoint_measurements moved).
  Spans::Layer* measure;
};

/// Times every call the scheduler makes into an execution handle.
class TimedExecution final : public sched::BatchExecution {
 public:
  TimedExecution(std::unique_ptr<sched::BatchExecution> inner, Spans* spans,
                 const ExecLayers* layers, const obs::Counter* measurements,
                 uint64_t rep)
      : BatchExecution(inner->batch()),
        inner_(std::move(inner)),
        spans_(spans),
        layers_(layers),
        measurements_(measurements),
        rep_(rep),
        query_(static_cast<int64_t>(batch_.query_ids.front())) {}

  uint32_t total_epochs() const override { return inner_->total_epochs(); }
  uint32_t epochs_run() const override { return inner_->epochs_run(); }
  dana::SimTime compile_cost() const override {
    return inner_->compile_cost();
  }
  double warm_fraction() const override { return inner_->warm_fraction(); }
  bool residency_modeled() const override {
    return inner_->residency_modeled();
  }
  double os_warm_fraction() const override {
    return inner_->os_warm_fraction();
  }

  dana::Result<sched::SliceCost> NextSlice(uint32_t max_epochs) override {
    Spans::Scope s(spans_, layers_->slice, rep_, query_);
    return inner_->NextSlice(max_epochs);
  }
  dana::Result<dana::SimTime> PeekService(uint32_t epochs) const override {
    Spans::Scope s(spans_, layers_->peek, rep_, query_);
    return inner_->PeekService(epochs);
  }
  dana::Status Checkpoint() override {
    Spans::Scope s(spans_, layers_->ckpt_resume, rep_, query_);
    return inner_->Checkpoint();
  }
  dana::Status Resume(uint32_t slot) override {
    Spans::Scope s(spans_, layers_->ckpt_resume, rep_, query_);
    const double before = measurements_->value();
    dana::Status st = inner_->Resume(slot);
    if (measurements_->value() != before) s.Relabel(layers_->measure);
    batch_ = inner_->batch();
    return st;
  }

 private:
  std::unique_ptr<sched::BatchExecution> inner_;
  Spans* spans_;
  const ExecLayers* layers_;
  const obs::Counter* measurements_;
  uint64_t rep_;
  int64_t query_;
};

/// A QueryExecutor decorator that times every call into the wrapped
/// DanaQueryExecutor. Dispatch is inherited: the base class implements it
/// as Begin plus one NextSlice, which this class times.
class TimedExecutor final : public sched::QueryExecutor {
 public:
  TimedExecutor(sched::DanaQueryExecutor* inner, Spans* spans,
                const obs::Counter* measurements)
      : inner_(inner),
        spans_(spans),
        layers_(spans),
        measurements_(measurements) {}

  void set_rep(uint64_t rep) { rep_ = rep; }

  dana::Result<std::unique_ptr<sched::BatchExecution>> Begin(
      const sched::QueryBatch& batch) override {
    Spans::Scope s(spans_, layers_.begin, rep_,
                   static_cast<int64_t>(batch.query_ids.front()));
    const double before = measurements_->value();
    auto begun = inner_->Begin(batch);
    if (measurements_->value() != before) s.Relabel(layers_.measure);
    if (!begun.ok()) return begun.status();
    return std::unique_ptr<sched::BatchExecution>(new TimedExecution(
        std::move(begun).ValueOrDie(), spans_, &layers_, measurements_, rep_));
  }
  dana::Result<dana::SimTime> Estimate(const std::string& id) override {
    Spans::Scope s(spans_, layers_.estimate, rep_);
    return inner_->Estimate(id);
  }
  dana::Result<dana::SimTime> EstimateAtWarmth(const std::string& id,
                                               double warm) override {
    Spans::Scope s(spans_, layers_.estimate, rep_);
    return inner_->EstimateAtWarmth(id, warm);
  }
  double WarmFraction(const std::string& id, uint32_t slot) override {
    Spans::Scope s(spans_, layers_.warm_fraction, rep_);
    return inner_->WarmFraction(id, slot);
  }
  void PrepareSlots(uint32_t slots) override { inner_->PrepareSlots(slots); }

 private:
  sched::DanaQueryExecutor* inner_;
  Spans* spans_;
  ExecLayers layers_;
  const obs::Counter* measurements_;
  uint64_t rep_ = 0;
};

/// The simulated outcome of one query; reps must reproduce it bit for bit.
struct QueryResult {
  uint32_t slot = 0;
  double start_ns = 0;
  double completion_ns = 0;
  double service_ns = 0;
  double compile_ns = 0;
  double warm_fraction = 0;
  double os_warm_fraction = 0;
  uint32_t batch_size = 0;
  uint32_t preemptions = 0;

  bool operator==(const QueryResult&) const = default;
};

struct SchedConfig {
  /// Registry workload ids; Setup ranks them shortest-estimate first, which
  /// makes the short algorithms the Zipf-hot (and interactive) ones.
  std::vector<std::string> catalog;
  uint32_t interactive_ranks = 0;
  uint32_t num_queries = 0;
  /// Offered load as a fraction of the slots' capacity.
  double load = 0.8;
  sched::SchedulerOptions scheduler;
  sched::DanaQueryExecutor::Options executor;
};

class SchedWorkload : public Workload {
 public:
  SchedWorkload(SchedConfig config, uint64_t seed)
      : config_(std::move(config)), seed_(seed) {}

  dana::Status Setup(Spans* spans) override {
    sched::DanaQueryExecutor::Options options = config_.executor;
    // Traced runs count the executor's simulator runs, which is how the
    // decorator tells an endpoint measurement from a priced call.
    if (spans != nullptr) options.metrics = &registry_;
    executor_ = std::make_unique<sched::DanaQueryExecutor>(options);
    if (spans != nullptr) {
      timed_ = std::make_unique<TimedExecutor>(
          executor_.get(), spans,
          registry_.counter("exec.endpoint_measurements"));
    }
    sched::QueryExecutor* exec = Executor(spans);

    std::vector<std::pair<double, std::string>> ranked;
    for (const std::string& id : config_.catalog) {
      DANA_ASSIGN_OR_RETURN(dana::SimTime est, exec->Estimate(id));
      ranked.emplace_back(est.seconds(), id);
    }
    std::sort(ranked.begin(), ranked.end());
    catalog_.clear();
    for (const auto& [est, id] : ranked) catalog_.push_back(id);

    double mean_service = 0;
    {
      Spans::Scope s(spans, "sched.calibrate", 0);
      DANA_ASSIGN_OR_RETURN(mean_service,
                            sched::WeightedMeanServiceSeconds(
                                *exec, catalog_, sched::Popularity::kZipfian,
                                kZipfExponent));
    }
    sched::DriverOptions driver;
    driver.seed = seed_;
    driver.num_queries = config_.num_queries;
    driver.zipf_exponent = kZipfExponent;
    driver.interactive_ranks = config_.interactive_ranks;
    driver.arrival_rate_qps =
        config_.load * config_.scheduler.slots / mean_service;
    DANA_ASSIGN_OR_RETURN(
        stream_, sched::WorkloadDriver(catalog_, driver).Generate());

    // Warm-up rep: measures the service endpoints the stream prices, so
    // timed reps do not run the accelerator simulator. It replays the
    // default seed's stream whatever the seed: the executor measures each
    // endpoint on the slot that first needs it and keeps that slot's pool
    // of table pages, so a fixed warm-up keeps the setup's work and memory
    // the same for every seed. An endpoint only the seeded stream needs is
    // measured in its first rep.
    driver.seed = kDefaultSeed;
    DANA_ASSIGN_OR_RETURN(std::vector<sched::QueryRequest> warmup,
                          sched::WorkloadDriver(catalog_, driver).Generate());
    executor_->ResetResidency();
    {
      Spans::Scope s(spans, "sched.warmup", 0);
      DANA_RETURN_NOT_OK(sched::Scheduler(config_.scheduler, exec)
                             .Run(std::move(warmup))
                             .status());
    }
    if (spans != nullptr) {
      spans->Count("sched.exec.endpoint_measurements",
                   registry_.counter("exec.endpoint_measurements")->value());
    }
    return Status::OK();
  }

  dana::Result<RepOutcome> RunRep(Spans* spans) override {
    const uint64_t rep = ++reps_;
    if (timed_ != nullptr) timed_->set_rep(rep);
    executor_->ResetResidency();
    std::vector<sched::QueryRequest> requests = stream_;
    sched::Scheduler scheduler(config_.scheduler, Executor(spans));
    RepOutcome out;
    const Clock::time_point start = Clock::now();
    const auto report = [&] {
      Spans::Scope s(spans, "sched.run", rep);
      return scheduler.Run(std::move(requests));
    }();
    out.host_s = SecondsSince(start);
    out.ops = stream_.size();
    if (!report.ok()) {
      std::fprintf(stderr, "Scheduler::Run: %s\n",
                   report.status().ToString().c_str());
      out.failed = out.ops;
      return out;
    }
    Check(*report, &out);
    Summarize(*report, &out);
    // ResetResidency zeroed the slot pools' stats before the rep.
    for (uint32_t s = 0; s < config_.scheduler.slots; ++s) {
      CountPool(spans, executor_->slot_pool(s)->stats());
    }
    return out;
  }

  dana::Status Replay(Spans* spans,
                      std::map<std::string, double>* sim) override {
    // The timed reps never leave the memoized pricing path, so the
    // accelerator layers run only in setup, measuring endpoints. Replay
    // that work — one epoch per catalog workload from each measured cache
    // state — on instances of the benchmark's own.
    int64_t op = 0;
    for (const std::string& id : catalog_) {
      const ml::Workload* w = ml::FindWorkload(id);
      if (w == nullptr) return Status::NotFound("unknown workload " + id);
      DANA_RETURN_NOT_OK(ReplayGenerate(*w, spans, 0));
      DANA_ASSIGN_OR_RETURN(auto instance,
                            runtime::WorkloadInstance::Create(*w));
      DANA_ASSIGN_OR_RETURN(compiler::CompiledUdf udf,
                            ReplayCompile(*instance, spans, 0));
      std::vector<runtime::CacheState> caches = {runtime::CacheState::kWarm,
                                                 runtime::CacheState::kCold};
      if (config_.executor.os_frames > 0) {
        caches.push_back(runtime::CacheState::kOsCached);
      }
      for (runtime::CacheState cache : caches) {
        DANA_RETURN_NOT_OK(ReplayEpoch(udf, instance.get(), cache, spans, 0,
                                       op++, sim));
      }
    }
    return Status::OK();
  }

 private:
  /// The timing decorator for traced calls, the executor itself otherwise.
  sched::QueryExecutor* Executor(Spans* spans) {
    if (spans != nullptr) return timed_.get();
    return executor_.get();
  }

  /// A query passes when it completed exactly once, at or after its
  /// scheduled arrival, started no earlier than it arrived and finished no
  /// earlier than it started, with the result rep 1 recorded for it.
  void Check(const sched::ScheduleReport& report, RepOutcome* out) {
    const size_t n = stream_.size();
    std::vector<uint32_t> seen(n, 0);
    std::vector<QueryResult> results(n);
    std::vector<bool> ok(n, true);
    Digest digest;
    for (const sched::QueryStat& q : report.queries) {
      if (q.id >= n) {
        ++out->failed;
        continue;
      }
      ++seen[q.id];
      QueryResult r;
      r.slot = q.slot;
      r.start_ns = q.start.nanos();
      r.completion_ns = q.completion.nanos();
      r.service_ns = q.service.nanos();
      r.compile_ns = q.compile.nanos();
      r.warm_fraction = q.warm_fraction;
      r.os_warm_fraction = q.os_warm_fraction;
      r.batch_size = q.batch_size;
      r.preemptions = q.preemptions;
      results[q.id] = r;
      const sched::QueryRequest& req = stream_[q.id];
      if (q.arrival != req.arrival || q.workload_id != req.workload_id ||
          !(q.arrival <= q.start) || !(q.start <= q.completion)) {
        ok[q.id] = false;
      }
      digest.Add(q.id);
      for (double v : {r.start_ns, r.completion_ns, r.service_ns,
                       r.compile_ns, r.warm_fraction, r.os_warm_fraction}) {
        digest.Add(v);
      }
      digest.Add((static_cast<uint64_t>(r.slot) << 40) |
                 (static_cast<uint64_t>(r.batch_size) << 20) | r.preemptions);
    }
    if (first_.empty()) first_ = results;
    for (size_t i = 0; i < n; ++i) {
      if (seen[i] != 1 || !ok[i] || results[i] != first_[i]) ++out->failed;
      const ml::Workload* w = Registry(stream_[i].workload_id);
      if (w != nullptr) out->tuples += w->tuples * w->dana_epochs;
    }
    out->digest = digest.value();
  }

  void Summarize(const sched::ScheduleReport& report, RepOutcome* out) const {
    using obs::Direction;
    out->sim = {
        {"sim_latency_p50_s", report.LatencyPercentile(50).seconds(),
         Direction::kLowerIsBetter, "s"},
        {"sim_latency_p99_s", report.LatencyPercentile(99).seconds(),
         Direction::kLowerIsBetter, "s"},
        {"sim_throughput_qps", report.ThroughputQps(),
         Direction::kHigherIsBetter, "queries/s"},
        {"sim_warm_hit_rate", report.WarmHitRate(),
         Direction::kHigherIsBetter, "fraction"},
    };
    if (config_.interactive_ranks > 0) {
      out->sim.push_back(
          {"sim_interactive_p95_s",
           report.ClassLatencyPercentile(sched::QueryClass::kInteractive, 95)
               .seconds(),
           Direction::kLowerIsBetter, "s"});
    }
    std::vector<double> waits;
    waits.reserve(report.queries.size());
    for (const sched::QueryStat& q : report.queries) {
      waits.push_back(q.Wait().seconds());
    }
    out->sim_layers["sched.preemptions"] =
        static_cast<double>(report.preemptions);
    out->sim_layers["sched.batches"] = static_cast<double>(report.batches);
    out->sim_layers["sched.mean_batch_size"] = report.MeanBatchSize();
    out->sim_layers["sched.sim_wait_p50_s"] = Percentile(waits, 50);
  }

  const ml::Workload* Registry(const std::string& id) {
    auto it = registry_cache_.find(id);
    if (it == registry_cache_.end()) {
      it = registry_cache_.emplace(id, ml::FindWorkload(id)).first;
    }
    return it->second;
  }

  SchedConfig config_;
  uint64_t seed_;
  obs::MetricRegistry registry_;
  std::unique_ptr<sched::DanaQueryExecutor> executor_;
  std::unique_ptr<TimedExecutor> timed_;
  std::vector<std::string> catalog_;
  std::vector<sched::QueryRequest> stream_;
  std::vector<QueryResult> first_;
  std::map<std::string, const ml::Workload*> registry_cache_;
  uint64_t reps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSchedOpen(uint64_t seed) {
  SchedConfig c;
  for (const ml::Workload& w : ml::PublicWorkloads()) c.catalog.push_back(w.id);
  c.num_queries = 400000;
  c.load = 0.8;
  c.scheduler.slots = 4;
  c.scheduler.policy = sched::Policy::kSjf;
  c.scheduler.max_batch = 4;
  c.scheduler.affinity_weight = 1.0;
  return std::make_unique<SchedWorkload>(std::move(c), seed);
}

std::unique_ptr<Workload> MakeSchedPreemptTiered(uint64_t seed) {
  SchedConfig c;
  c.catalog = {"sn_lrmf", "sn_logistic", "sn_svm", "se_logistic"};
  c.interactive_ranks = 1;
  // Host time follows how many sweeps of the 3x-pool table a stream holds,
  // a binomial draw: 8000 queries keep it within a few percent across
  // seeds. The pools are sized in scale-normalized frames (pure resolution)
  // and 512 keeps a rep near 2 s; the OS tier stays twice the pool.
  c.num_queries = 8000;
  c.load = 0.8;
  c.scheduler.slots = 4;
  c.scheduler.policy = sched::Policy::kSjf;
  c.scheduler.affinity_weight = 1.0;
  c.scheduler.preemption_quantum_epochs = 2;
  c.scheduler.context_switch_cost = dana::SimTime::Millis(50);
  c.executor.eviction = storage::EvictionKind::kLru;
  c.executor.pool_frames = 512;
  c.executor.os_frames = 1024;
  return std::make_unique<SchedWorkload>(std::move(c), seed);
}

}  // namespace dana::e2e
