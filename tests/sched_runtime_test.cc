// Threaded-runtime parity suite (ctest label: sched_runtime).
//
// SchedulerOptions::runtime_mode = kThreaded executes every dispatch on a
// real per-slot worker thread while the discrete-event engine remains the
// *oracle*: scheduling decisions serialize in oracle order, time stays
// virtual, and the resulting report must match the simulated run not just
// in aggregate but field for field — per-query dispatch order, slot
// placement, start/completion/service/compile nanos, batch sizes, warm
// fractions, preemption counts, and a byte-identical sched.* metric
// snapshot. Wall-clock time is the only thing allowed to differ, and no
// report field measures it. The suite runs identical seeds through both
// modes across the full matrix (three policies x run-to-completion /
// preemptive x 1/4/8 slots), through the closed loop (with and without
// preemption), and against the real DanaQueryExecutor whose fill-once
// caches the threaded mode leans on.
//
// The second half stress-tests the concurrency primitives the threaded
// path introduced: the CompileCache / FillOnceMap fill-once/wait contract
// (K threads requesting one cold key -> exactly one build) and the atomic
// MetricRegistry. The CI tsan job runs this binary under ThreadSanitizer,
// and the determinism step runs the label twice and diffs the logs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fill_once.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "sched/compile_cache.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"

namespace dana::sched {
namespace {

/// Deterministic synthetic epoch-sliced costs (the sched_corpus stub
/// shape): one epoch of `id` occupies shared_s + size * per_query_s seconds
/// over `epochs` epochs. Every map is written during single-threaded setup
/// and only read afterwards, so concurrent slot workers share it safely.
class RuntimeExecutor : public QueryExecutor {
 public:
  void Set(const std::string& id, uint32_t epochs, double epoch_shared_s,
           double epoch_per_query_s, double estimate_s,
           double compile_s = 0.0) {
    specs_[id] = {epochs, epoch_shared_s, epoch_per_query_s, compile_s};
    estimates_[id] = dana::SimTime::Seconds(estimate_s);
  }

  void SetWarm(const std::string& id, uint32_t slot, double fraction) {
    warmth_[{id, slot}] = fraction;
    modeled_.insert(id);
  }

  double WarmFraction(const std::string& id, uint32_t slot) override {
    auto it = warmth_.find({id, slot});
    return it == warmth_.end() ? 0.0 : it->second;
  }

  Result<std::unique_ptr<BatchExecution>> Begin(
      const QueryBatch& batch) override {
    auto it = specs_.find(batch.workload_id);
    if (it == specs_.end()) return Status::NotFound(batch.workload_id);
    return std::unique_ptr<BatchExecution>(new Execution(
        batch, it->second, WarmFraction(batch.workload_id, batch.slot),
        modeled_.count(batch.workload_id) > 0));
  }

  Result<dana::SimTime> Estimate(const std::string& id) override {
    auto it = estimates_.find(id);
    if (it == estimates_.end()) return Status::NotFound(id);
    return it->second;
  }

 private:
  struct Spec {
    uint32_t epochs;
    double shared_s;
    double per_query_s;
    double compile_s;
  };

  class Execution : public BatchExecution {
   public:
    Execution(QueryBatch batch, Spec spec, double warm, bool modeled)
        : BatchExecution(std::move(batch)),
          spec_(spec),
          warm_(warm),
          modeled_(modeled) {}

    uint32_t total_epochs() const override { return spec_.epochs; }
    uint32_t epochs_run() const override { return done_; }
    dana::SimTime compile_cost() const override {
      return dana::SimTime::Seconds(spec_.compile_s);
    }
    double warm_fraction() const override { return warm_; }
    bool residency_modeled() const override { return modeled_; }

    dana::SimTime EpochCost() const {
      return dana::SimTime::Seconds(
          spec_.shared_s + spec_.per_query_s * batch_.size());
    }

    Result<SliceCost> NextSlice(uint32_t max_epochs) override {
      const uint32_t remaining = spec_.epochs - done_;
      if (remaining == 0) {
        return Status::FailedPrecondition("already finished");
      }
      const uint32_t n =
          max_epochs == 0 ? remaining : std::min(max_epochs, remaining);
      SliceCost s;
      s.epochs = n;
      s.service = EpochCost() * static_cast<double>(n);
      s.shared = dana::SimTime::Seconds(spec_.shared_s) *
                 static_cast<double>(n);
      s.per_query = dana::SimTime::Seconds(spec_.per_query_s) *
                    static_cast<double>(n);
      done_ += n;
      s.finished = done_ == spec_.epochs;
      return s;
    }

    Result<dana::SimTime> PeekService(uint32_t epochs) const override {
      const uint32_t remaining = spec_.epochs - done_;
      const uint32_t n =
          epochs == 0 ? remaining : std::min(epochs, remaining);
      return EpochCost() * static_cast<double>(n);
    }

    Status Checkpoint() override { return Status::OK(); }
    Status Resume(uint32_t slot) override {
      batch_.slot = slot;
      return Status::OK();
    }

   private:
    Spec spec_;
    double warm_;
    bool modeled_;
    uint32_t done_ = 0;
  };

  std::map<std::string, Spec> specs_;
  std::map<std::string, dana::SimTime> estimates_;
  std::map<std::pair<std::string, uint32_t>, double> warmth_;
  std::set<std::string> modeled_;
};

/// The corpus stub catalog: two short interactive-ish algorithms, two mid,
/// two long trainings, with pre-pinned warmth so affinity placement has
/// something to read from the first dispatch.
RuntimeExecutor MakeExecutor() {
  RuntimeExecutor e;
  e.Set("lookup", 1, 1.5, 0.5, 2.0, 0.2);
  e.Set("score", 2, 1.0, 0.5, 3.0, 0.2);
  e.Set("logit", 4, 1.5, 0.5, 7.0, 0.5);
  e.Set("svm", 6, 1.5, 1.0, 11.0, 0.5);
  e.Set("train", 12, 2.0, 1.0, 26.0, 1.0);
  e.Set("lrmf", 20, 2.5, 1.0, 55.0, 1.0);
  e.SetWarm("logit", 1, 0.8);
  e.SetWarm("train", 0, 0.6);
  return e;
}

std::vector<QueryRequest> Stream(uint64_t seed, uint32_t queries,
                                 double rate_qps,
                                 uint32_t interactive_ranks = 0) {
  DriverOptions opts;
  opts.seed = seed;
  opts.num_queries = queries;
  opts.arrival_rate_qps = rate_qps;
  opts.popularity = Popularity::kZipfian;
  opts.zipf_exponent = 1.1;
  opts.interactive_ranks = interactive_ranks;
  WorkloadDriver driver({"lookup", "score", "logit", "svm", "train", "lrmf"},
                        opts);
  auto stream = driver.Generate();
  EXPECT_TRUE(stream.ok());
  return *stream;
}

struct RunOutcome {
  ScheduleReport report;
  std::string metrics_json;
};

RunOutcome RunWith(SchedulerOptions opts, RuntimeMode mode,
                   const std::vector<QueryRequest>& stream) {
  RuntimeExecutor exec = MakeExecutor();
  obs::MetricRegistry registry;
  opts.metrics = &registry;
  opts.runtime_mode = mode;
  Scheduler scheduler(opts, &exec);
  auto report = scheduler.Run(stream);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  return {std::move(*report), registry.ToJson().Dump()};
}

RunOutcome RunClosedLoopWith(SchedulerOptions opts, RuntimeMode mode,
                             const std::vector<std::vector<std::string>>&
                                 sessions,
                             dana::SimTime think,
                             const std::vector<QueryClass>& classes = {}) {
  RuntimeExecutor exec = MakeExecutor();
  obs::MetricRegistry registry;
  opts.metrics = &registry;
  opts.runtime_mode = mode;
  Scheduler scheduler(opts, &exec);
  auto report = scheduler.RunClosedLoop(sessions, think, classes);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  return {std::move(*report), registry.ToJson().Dump()};
}

/// The oracle-parity contract: everything the report states — not just
/// aggregates — must match the simulated run, and so must the full metric
/// snapshot. Wall-clock time is the only permitted difference, and no
/// compared field measures it.
void ExpectOracleParity(const RunOutcome& oracle, const RunOutcome& threaded,
                        const std::string& what) {
  ASSERT_EQ(oracle.report.queries.size(), threaded.report.queries.size())
      << what;
  for (size_t i = 0; i < oracle.report.queries.size(); ++i) {
    const QueryStat& a = oracle.report.queries[i];
    const QueryStat& b = threaded.report.queries[i];
    EXPECT_EQ(a.id, b.id) << what << " position " << i;
    EXPECT_EQ(a.slot, b.slot) << what << " query " << a.id;
    EXPECT_EQ(a.start.nanos(), b.start.nanos()) << what << " query " << a.id;
    EXPECT_EQ(a.completion.nanos(), b.completion.nanos())
        << what << " query " << a.id;
    EXPECT_EQ(a.service.nanos(), b.service.nanos())
        << what << " query " << a.id;
    EXPECT_EQ(a.compile.nanos(), b.compile.nanos())
        << what << " query " << a.id;
    EXPECT_EQ(a.batch_size, b.batch_size) << what << " query " << a.id;
    EXPECT_EQ(a.preemptions, b.preemptions) << what << " query " << a.id;
    EXPECT_DOUBLE_EQ(a.warm_fraction, b.warm_fraction)
        << what << " query " << a.id;
    EXPECT_DOUBLE_EQ(a.os_warm_fraction, b.os_warm_fraction)
        << what << " query " << a.id;
  }
  EXPECT_EQ(oracle.report.makespan.nanos(), threaded.report.makespan.nanos())
      << what;
  EXPECT_EQ(oracle.report.compile_hits, threaded.report.compile_hits) << what;
  EXPECT_EQ(oracle.report.compile_misses, threaded.report.compile_misses)
      << what;
  EXPECT_EQ(oracle.report.batches, threaded.report.batches) << what;
  EXPECT_EQ(oracle.report.preemptions, threaded.report.preemptions) << what;
  // One string carries every counter, gauge, and histogram percentile.
  EXPECT_EQ(oracle.metrics_json, threaded.metrics_json) << what;
}

const uint32_t kWidths[] = {1, 4, 8};
const Policy kPolicies[] = {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin};

// ---------------------------------------------------------------------------
// Run-to-completion parity: zero quantum, zero window
// ---------------------------------------------------------------------------

TEST(ThreadedParityTest, RunToCompletionAllPoliciesAndWidths) {
  const auto stream = Stream(0xC0FFEE, 48, 0.3);
  for (uint32_t slots : kWidths) {
    for (Policy policy : kPolicies) {
      SchedulerOptions opts{.slots = slots, .policy = policy, .max_batch = 3};
      const RunOutcome oracle = RunWith(opts, RuntimeMode::kSimulated, stream);
      const std::string what =
          std::string("rtc/") + PolicyName(policy) + "/x" +
          std::to_string(slots);
      ExpectOracleParity(oracle, RunWith(opts, RuntimeMode::kThreaded, stream),
                         what);
      // Both modes run the one engine, which slices every run: with
      // nothing preempted, one slice per batch.
      EXPECT_NE(oracle.metrics_json.find(
                    "\"sched.slices\":" +
                    std::to_string(oracle.report.batches)),
                std::string::npos)
          << what;
    }
  }
}

TEST(ThreadedParityTest, RunToCompletionAffinityAndAging) {
  // Affinity reads slot warmth on the coordinating thread at decision
  // time; the proxied slices must leave exactly the pool state the
  // simulated oracle reads.
  const auto stream = Stream(0xBEEF, 40, 0.35);
  for (uint32_t slots : kWidths) {
    SchedulerOptions opts{.slots = slots,
                          .policy = Policy::kSjf,
                          .max_batch = 2,
                          .sjf_aging_weight = 0.2,
                          .affinity_weight = 0.5};
    ExpectOracleParity(RunWith(opts, RuntimeMode::kSimulated, stream),
                       RunWith(opts, RuntimeMode::kThreaded, stream),
                       "rtc/sjf-aged-affinity/x" + std::to_string(slots));
  }
}

// ---------------------------------------------------------------------------
// Preemptive parity: slot workers behind the event-driven engine
// ---------------------------------------------------------------------------

TEST(ThreadedParityTest, PreemptiveAllPoliciesAndWidths) {
  const auto stream = Stream(0x5EED, 40, 0.3, /*interactive_ranks=*/2);
  for (uint32_t slots : kWidths) {
    for (Policy policy : kPolicies) {
      SchedulerOptions opts{.slots = slots,
                            .policy = policy,
                            .max_batch = 3,
                            .affinity_weight = 0.5,
                            .preemption_quantum_epochs = 3,
                            .context_switch_cost = dana::SimTime::Millis(250)};
      ExpectOracleParity(RunWith(opts, RuntimeMode::kSimulated, stream),
                         RunWith(opts, RuntimeMode::kThreaded, stream),
                         std::string("preempt/") + PolicyName(policy) + "/x" +
                             std::to_string(slots));
    }
  }
}

TEST(ThreadedParityTest, PreemptiveBatchWindow) {
  // Batch-formation holds are the subtlest event-engine client; the
  // threaded proxy must not perturb hold expiry or seizure order.
  const auto stream = Stream(0xF00D, 36, 0.35, /*interactive_ranks=*/2);
  SchedulerOptions opts{.slots = 2,
                        .policy = Policy::kFcfs,
                        .max_batch = 4,
                        .affinity_weight = 0.5,
                        .preemption_quantum_epochs = 4,
                        .context_switch_cost = dana::SimTime::Millis(100),
                        .batch_window = dana::SimTime::Seconds(3)};
  ExpectOracleParity(RunWith(opts, RuntimeMode::kSimulated, stream),
                     RunWith(opts, RuntimeMode::kThreaded, stream),
                     "preempt/window");
}

// ---------------------------------------------------------------------------
// Closed-loop: threaded parity and the newly composed preemption
// ---------------------------------------------------------------------------

const std::vector<std::vector<std::string>> kSessions = {
    {"lookup", "score", "lookup"},
    {"train", "lookup"},
    {"logit", "svm"},
    {"score", "score", "score"},
    {"lrmf"},
};

TEST(ThreadedParityTest, ClosedLoopRunToCompletion) {
  for (Policy policy : kPolicies) {
    for (uint32_t slots : {1u, 4u}) {
      SchedulerOptions opts{.slots = slots, .policy = policy, .max_batch = 2};
      ExpectOracleParity(
          RunClosedLoopWith(opts, RuntimeMode::kSimulated, kSessions,
                            dana::SimTime::Seconds(0.5)),
          RunClosedLoopWith(opts, RuntimeMode::kThreaded, kSessions,
                            dana::SimTime::Seconds(0.5)),
          std::string("closed/") + PolicyName(policy) + "/x" +
              std::to_string(slots));
    }
  }
}

TEST(ThreadedParityTest, ClosedLoopPreemptive) {
  const std::vector<QueryClass> classes = {
      QueryClass::kInteractive, QueryClass::kBatch, QueryClass::kBatch,
      QueryClass::kInteractive, QueryClass::kBatch};
  for (Policy policy : kPolicies) {
    for (uint32_t slots : {1u, 4u}) {
      SchedulerOptions opts{.slots = slots,
                            .policy = policy,
                            .max_batch = 2,
                            .preemption_quantum_epochs = 2,
                            .context_switch_cost = dana::SimTime::Millis(200)};
      ExpectOracleParity(
          RunClosedLoopWith(opts, RuntimeMode::kSimulated, kSessions,
                            dana::SimTime::Seconds(0.5), classes),
          RunClosedLoopWith(opts, RuntimeMode::kThreaded, kSessions,
                            dana::SimTime::Seconds(0.5), classes),
          std::string("closed-preempt/") + PolicyName(policy) + "/x" +
              std::to_string(slots));
    }
  }
}

TEST(ClosedLoopPreemptionTest, InteractiveSessionPreemptsBatchTraining) {
  // One slot, a long batch training session against an interactive
  // lookup session: the composed closed-loop preemption must checkpoint
  // the training at epoch boundaries so the interactive queries get in —
  // the scenario RunClosedLoop used to reject outright.
  const std::vector<std::vector<std::string>> sessions = {
      {"train", "train"},
      {"lookup", "lookup", "lookup"},
  };
  const std::vector<QueryClass> classes = {QueryClass::kBatch,
                                           QueryClass::kInteractive};
  RuntimeExecutor exec = MakeExecutor();
  Scheduler scheduler({.slots = 1,
                       .policy = Policy::kFcfs,
                       .preemption_quantum_epochs = 2,
                       .context_switch_cost = dana::SimTime::Millis(100)},
                      &exec);
  auto report =
      scheduler.RunClosedLoop(sessions, dana::SimTime::Seconds(1), classes);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries.size(), 5u);
  EXPECT_EQ(report->ClassQueries(QueryClass::kInteractive), 3u);
  EXPECT_GE(report->preemptions, 1u);
  // Preempting works: no interactive query waits out a full training run
  // (12 epochs x 3s); it rides in at the next armed epoch boundary.
  for (const QueryStat& q : report->queries) {
    if (q.query_class == QueryClass::kInteractive) {
      EXPECT_LT(q.Wait().seconds(), 12.0 * 3.0) << "query " << q.id;
    }
  }
}

TEST(ClosedLoopPreemptionTest, BatchWindowIsStillRejected) {
  // The batch-formation window remains the one open-stream-only knob; the
  // rejection must stay actionable (InvalidArgument naming the option),
  // while the quantum — rejected before this fix — now composes.
  RuntimeExecutor exec = MakeExecutor();
  Scheduler windowed({.slots = 1,
                      .policy = Policy::kFcfs,
                      .max_batch = 2,
                      .batch_window = dana::SimTime::Seconds(1)},
                     &exec);
  const Status err =
      windowed.RunClosedLoop({{"lookup"}}, dana::SimTime::Zero()).status();
  EXPECT_TRUE(err.IsInvalidArgument());
  EXPECT_NE(err.ToString().find("batch_window"), std::string::npos);

  Scheduler quantum({.slots = 1,
                     .policy = Policy::kFcfs,
                     .preemption_quantum_epochs = 1},
                    &exec);
  EXPECT_TRUE(
      quantum.RunClosedLoop({{"lookup"}}, dana::SimTime::Zero()).ok());
}

// ---------------------------------------------------------------------------
// Real executor: fill-once caches under the threaded runtime
// ---------------------------------------------------------------------------

TEST(ThreadedParityTest, DanaExecutorRunToCompletion) {
  // The real executor's cold paths (compile cache, endpoint measurement)
  // are fill-once; proxied dispatches must price exactly what the
  // simulated oracle priced, and physical per-slot pools must end in the
  // same state regardless of which thread swept them.
  DriverOptions dopts;
  dopts.seed = 0xDA7A;
  dopts.num_queries = 12;
  dopts.arrival_rate_qps = 0.03;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = 1.2;
  WorkloadDriver driver({"wlan", "sn_lrmf", "sn_linear"}, dopts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());

  auto run = [&](RuntimeMode mode) {
    DanaQueryExecutor executor;
    obs::MetricRegistry registry;
    Scheduler scheduler({.slots = 2,
                         .policy = Policy::kSjf,
                         .max_batch = 2,
                         .affinity_weight = 0.5,
                         .metrics = &registry,
                         .runtime_mode = mode},
                        &executor);
    auto report = scheduler.Run(*stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return RunOutcome{std::move(*report), registry.ToJson().Dump()};
  };
  ExpectOracleParity(run(RuntimeMode::kSimulated),
                     run(RuntimeMode::kThreaded), "dana/rtc");
}

TEST(ThreadedParityTest, DanaExecutorPreemptive) {
  DriverOptions dopts;
  dopts.seed = 0xDA7A;
  dopts.num_queries = 12;
  dopts.arrival_rate_qps = 0.03;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = 1.2;
  dopts.interactive_ranks = 1;
  WorkloadDriver driver({"wlan", "sn_lrmf", "sn_linear"}, dopts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());

  auto run = [&](RuntimeMode mode) {
    DanaQueryExecutor executor;
    obs::MetricRegistry registry;
    Scheduler scheduler({.slots = 2,
                         .policy = Policy::kSjf,
                         .max_batch = 2,
                         .affinity_weight = 0.5,
                         .preemption_quantum_epochs = 2,
                         .context_switch_cost = dana::SimTime::Millis(50),
                         .metrics = &registry,
                         .runtime_mode = mode},
                        &executor);
    auto report = scheduler.Run(*stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return RunOutcome{std::move(*report), registry.ToJson().Dump()};
  };
  ExpectOracleParity(run(RuntimeMode::kSimulated),
                     run(RuntimeMode::kThreaded), "dana/preempt");
}

// ---------------------------------------------------------------------------
// Compile-cache stampede: fill-once/wait under real threads
// ---------------------------------------------------------------------------

TEST(CompileCacheStampedeTest, ColdKeyCompilesExactlyOnce) {
  constexpr int kThreads = 8;
  CompileCache cache;
  std::atomic<int> builds{0};
  std::atomic<bool> build_started{false};
  auto builder = [&]() -> dana::Result<compiler::CompiledUdf> {
    builds.fetch_add(1, std::memory_order_relaxed);
    build_started.store(true, std::memory_order_release);
    // Hold the fill open long enough that every waiter piles onto the
    // in-flight entry instead of hitting a ready one.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    compiler::CompiledUdf udf;
    udf.udf_name = "stampede";
    return udf;
  };

  std::vector<const compiler::CompiledUdf*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto r = cache.GetOrCompile("design", builder);
    if (r.ok()) got[0] = *r;
  });
  // Admit the waiters only once the single build is provably in flight.
  while (!build_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 1; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto r = cache.GetOrCompile("design", builder);
      if (r.ok()) got[i] = *r;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1) << "stampede must collapse to one compile";
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(got[0], nullptr);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], got[0]) << "all requesters share the one design";
  }
  EXPECT_EQ(got[0]->udf_name, "stampede");
}

TEST(CompileCacheStampedeTest, FailedBuildReachesWaitersAndIsNotCached) {
  constexpr int kThreads = 4;
  CompileCache cache;
  std::atomic<int> builds{0};
  std::atomic<bool> build_started{false};
  auto failing = [&]() -> dana::Result<compiler::CompiledUdf> {
    builds.fetch_add(1, std::memory_order_relaxed);
    build_started.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return dana::Status::Internal("synthetic compile failure");
  };

  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    statuses[0] = cache.GetOrCompile("bad", failing).status();
  });
  while (!build_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 1; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = cache.GetOrCompile("bad", failing).status();
    });
  }
  for (std::thread& t : threads) t.join();

  // One build ran; it and every waiter got the error, nobody a stale value.
  EXPECT_EQ(builds.load(), 1);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(statuses[i].IsInternal()) << statuses[i].ToString();
  }
  // The failure counted the one miss (matching single-threaded
  // accounting), no hits, and was not cached: the next requester retries
  // from scratch and succeeds.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find("bad"), nullptr);

  auto ok_builder = [&]() -> dana::Result<compiler::CompiledUdf> {
    compiler::CompiledUdf udf;
    udf.udf_name = "recovered";
    return udf;
  };
  auto retried = cache.GetOrCompile("bad", ok_builder);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ((*retried)->udf_name, "recovered");
  EXPECT_EQ(cache.misses(), 2u);
  auto hit = cache.GetOrCompile("bad", ok_builder);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *retried);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(FillOnceMapTest, SingleThreadedSemantics) {
  dana::FillOnceMap<std::string, int> map;
  int fills = 0;
  bool filled_here = false;
  auto fill = [&]() -> dana::Result<int> {
    ++fills;
    return 42;
  };
  auto a = map.GetOrFill("k", fill, &filled_here);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(filled_here);
  EXPECT_EQ(**a, 42);
  auto b = map.GetOrFill("k", fill, &filled_here);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(filled_here);
  EXPECT_EQ(*a, *b) << "ready hits return the same stable pointer";
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(map.size(), 1u);

  // A failed fill is not cached; the next request retries the filler.
  auto fail = [&]() -> dana::Result<int> {
    ++fills;
    return dana::Status::IOError("transient");
  };
  EXPECT_TRUE(map.GetOrFill("bad", fail).status().IsIOError());
  EXPECT_EQ(map.Find("bad"), nullptr);
  auto recovered = map.GetOrFill("bad", fill);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(**recovered, 42);
  EXPECT_EQ(fills, 3);
}

// ---------------------------------------------------------------------------
// MetricRegistry: exact totals under concurrent publishing
// ---------------------------------------------------------------------------

TEST(MetricRegistryStressTest, ConcurrentPublishesCountExactly) {
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  obs::MetricRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Resolve-once hot-path idiom for the shared counter; the helpers
      // exercise concurrent name->metric creation too.
      obs::Counter* shared = registry.counter("stress.shared");
      const std::string own = "stress.thread." + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        shared->Increment();
        obs::Count(&registry, own);
        obs::Observe(&registry, "stress.latency", i % 7);
        obs::SetGauge(&registry, "stress.gauge", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Integral counts are exactly representable: no increment may be lost.
  EXPECT_DOUBLE_EQ(registry.counter("stress.shared")->value(),
                   static_cast<double>(kThreads) * kOps);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry.counter("stress.thread." + std::to_string(t))->value(),
        static_cast<double>(kOps));
  }
  obs::Histogram* h = registry.histogram("stress.latency");
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kOps);
  // Every thread records the same multiset; order-independent readouts are
  // exact no matter how the interleaving went.
  double per_thread_sum = 0;
  for (int i = 0; i < kOps; ++i) per_thread_sum += i % 7;
  EXPECT_DOUBLE_EQ(h->Sum(), per_thread_sum * kThreads);
  EXPECT_DOUBLE_EQ(h->Min(), 0.0);
  EXPECT_DOUBLE_EQ(h->Max(), 6.0);
  // The gauge holds one of the written values (last write wins).
  const double g = registry.gauge("stress.gauge")->value();
  EXPECT_GE(g, 0.0);
  EXPECT_LE(g, kOps - 1);
}

}  // namespace
}  // namespace dana::sched
