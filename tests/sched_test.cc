#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "sched/compile_cache.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "support/synthetic_executor.h"

namespace dana::sched {
namespace {

// ---------------------------------------------------------------------------
// Latency-percentile math (common/stats.h Percentile)
// ---------------------------------------------------------------------------

TEST(PercentileTest, LinearInterpolationBetweenRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.5);
  EXPECT_NEAR(Percentile(v, 95), 95.05, 1e-9);
  EXPECT_NEAR(Percentile(v, 99), 99.01, 1e-9);
}

TEST(PercentileTest, EdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));  // no data != zero latency
  EXPECT_TRUE(std::isnan(Percentile({nan, nan}, 50)));
  EXPECT_TRUE(std::isnan(Percentile({1.0, 2.0}, nan)));
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0), 7.0);  // single element, every p
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0}, 50), 2.0);  // input need not be sorted
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 150), 2.0);  // p clamped
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, -5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({nan, 3.0, 1.0}, 100), 3.0);  // NaN samples drop
  // p=0 / p=100 hit the exact extremes with no interpolation round-off.
  EXPECT_DOUBLE_EQ(Percentile({0.1, 0.2, 0.3}, 0), 0.1);
  EXPECT_DOUBLE_EQ(Percentile({0.1, 0.2, 0.3}, 100), 0.3);
}

// ---------------------------------------------------------------------------
// Workload driver
// ---------------------------------------------------------------------------

std::vector<std::string> SixClassCatalog() {
  return {"a", "b", "c", "d", "e", "f"};
}

TEST(WorkloadDriverTest, BitReproducibleFromSeed) {
  DriverOptions opts;
  opts.seed = 1234;
  opts.num_queries = 300;
  opts.arrival_rate_qps = 10;
  WorkloadDriver d1(SixClassCatalog(), opts);
  WorkloadDriver d2(SixClassCatalog(), opts);
  auto s1 = d1.Generate();
  auto s2 = d2.Generate();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->size(), 300u);
  for (size_t i = 0; i < s1->size(); ++i) {
    EXPECT_EQ((*s1)[i].id, (*s2)[i].id);
    EXPECT_EQ((*s1)[i].workload_id, (*s2)[i].workload_id);
    // Bit-for-bit, not approximately equal.
    EXPECT_EQ((*s1)[i].arrival.nanos(), (*s2)[i].arrival.nanos());
  }
}

TEST(WorkloadDriverTest, DifferentSeedsDiffer) {
  DriverOptions opts;
  opts.num_queries = 50;
  opts.seed = 1;
  WorkloadDriver d1(SixClassCatalog(), opts);
  opts.seed = 2;
  WorkloadDriver d2(SixClassCatalog(), opts);
  auto s1 = d1.Generate();
  auto s2 = d2.Generate();
  ASSERT_TRUE(s1.ok() && s2.ok());
  bool any_difference = false;
  for (size_t i = 0; i < s1->size(); ++i) {
    if ((*s1)[i].workload_id != (*s2)[i].workload_id ||
        (*s1)[i].arrival.nanos() != (*s2)[i].arrival.nanos()) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(WorkloadDriverTest, ArrivalsAreMonotonicAndRateMatches) {
  DriverOptions opts;
  opts.num_queries = 2000;
  opts.arrival_rate_qps = 20;
  WorkloadDriver driver(SixClassCatalog(), opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  dana::SimTime prev;
  for (const QueryRequest& r : *stream) {
    EXPECT_GE(r.arrival.nanos(), prev.nanos());
    prev = r.arrival;
  }
  // 2000 arrivals at 20 qps last ~100 s in expectation.
  EXPECT_NEAR(stream->back().arrival.seconds(), 100.0, 15.0);
}

TEST(WorkloadDriverTest, ZipfianSkewsTowardsHeadOfCatalog) {
  DriverOptions opts;
  opts.num_queries = 1000;
  opts.popularity = Popularity::kZipfian;
  opts.zipf_exponent = 1.2;
  WorkloadDriver driver(SixClassCatalog(), opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  std::map<std::string, int> counts;
  for (const QueryRequest& r : *stream) counts[r.workload_id]++;
  // Rank 0 should dominate the tail decisively at s=1.2.
  EXPECT_GT(counts["a"], 2 * counts["f"]);
  EXPECT_GT(counts["a"], counts["b"]);
}

TEST(WorkloadDriverTest, UniformIsRoughlyBalanced) {
  DriverOptions opts;
  opts.num_queries = 6000;
  opts.popularity = Popularity::kUniform;
  WorkloadDriver driver(SixClassCatalog(), opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  std::map<std::string, int> counts;
  for (const QueryRequest& r : *stream) counts[r.workload_id]++;
  for (const auto& [id, n] : counts) {
    EXPECT_NEAR(n, 1000, 150) << id;
  }
}

TEST(WorkloadDriverTest, RejectsBadConfigurations) {
  DriverOptions opts;
  EXPECT_TRUE(WorkloadDriver({}, opts).Generate().status().IsInvalidArgument());
  opts.arrival_rate_qps = 0;
  EXPECT_TRUE(WorkloadDriver(SixClassCatalog(), opts)
                  .Generate()
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------------

TEST(CompileCacheTest, BuildsOncePerKey) {
  CompileCache cache;
  int builds = 0;
  auto builder = [&]() -> Result<compiler::CompiledUdf> {
    ++builds;
    compiler::CompiledUdf udf;
    udf.udf_name = "stub";
    return udf;
  };
  auto first = cache.GetOrCompile("linear_d10", builder);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrCompile("linear_d10", builder);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*first, *second);  // same stored object
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find("linear_d10"), *first);
  EXPECT_EQ(cache.Find("absent"), nullptr);
}

TEST(CompileCacheTest, FailedBuildIsNotCached) {
  CompileCache cache;
  int calls = 0;
  auto builder = [&]() -> Result<compiler::CompiledUdf> {
    if (++calls == 1) return Status::Internal("transient");
    compiler::CompiledUdf udf;
    return udf;
  };
  EXPECT_FALSE(cache.GetOrCompile("k", builder).ok());
  // The failure left nothing behind: no entry, nothing to find.
  EXPECT_EQ(cache.Find("k"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // The retry runs the builder again and stores its design; later hits
  // return the same pointer.
  auto retried = cache.GetOrCompile("k", builder);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find("k"), *retried);
  auto hit = cache.GetOrCompile("k", builder);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *retried);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---------------------------------------------------------------------------
// Scheduler policies (driven by a synthetic executor)
// ---------------------------------------------------------------------------

QueryRequest Req(uint64_t id, const std::string& workload, double arrival_s) {
  QueryRequest r;
  r.id = id;
  r.workload_id = workload;
  r.arrival = dana::SimTime::Seconds(arrival_s);
  return r;
}

std::vector<uint64_t> DispatchOrder(const ScheduleReport& report) {
  std::vector<uint64_t> order;
  for (const QueryStat& q : report.queries) order.push_back(q.id);
  return order;
}

TEST(SchedulerTest, FcfsDispatchesInArrivalOrder) {
  SyntheticExecutor exec;
  exec.Set("long", {.per_query_s = 100, .estimate_s = 100});
  exec.Set("short", {.per_query_s = 1, .estimate_s = 1});
  // All queued behind the long job on one slot.
  std::vector<QueryRequest> reqs = {Req(0, "long", 0), Req(1, "long", 1),
                                    Req(2, "short", 2), Req(3, "long", 3)};
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs}, &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DispatchOrder(*report), (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(SchedulerTest, SjfPicksSmallestEstimateAmongQueued) {
  SyntheticExecutor exec;
  exec.Set("huge", {.per_query_s = 100, .estimate_s = 100});
  exec.Set("mid", {.per_query_s = 30, .estimate_s = 30});
  exec.Set("small", {.per_query_s = 10, .estimate_s = 10});
  exec.Set("tiny", {.per_query_s = 5, .estimate_s = 5});
  // "huge" occupies the slot; the rest queue up and must run in estimate
  // order, not arrival order.
  std::vector<QueryRequest> reqs = {Req(0, "huge", 0), Req(1, "mid", 1),
                                    Req(2, "small", 2), Req(3, "tiny", 3)};
  Scheduler sched({.slots = 1, .policy = Policy::kSjf}, &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DispatchOrder(*report), (std::vector<uint64_t>{0, 3, 2, 1}));
}

TEST(SchedulerTest, RoundRobinAlternatesAcrossAlgorithms) {
  SyntheticExecutor exec;
  exec.Set("x", {.per_query_s = 10, .estimate_s = 10});
  exec.Set("y", {.per_query_s = 10, .estimate_s = 10});
  // Three x queries then one y, all arriving while the slot is busy: RR
  // must interleave y after the first x instead of draining x first.
  std::vector<QueryRequest> reqs = {Req(0, "x", 0), Req(1, "x", 1),
                                    Req(2, "x", 2), Req(3, "y", 3)};
  Scheduler sched({.slots = 1, .policy = Policy::kRoundRobin}, &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DispatchOrder(*report), (std::vector<uint64_t>{0, 3, 1, 2}));
}

TEST(SchedulerTest, CompileChargedOnlyOnFirstDispatchOfEachAlgorithm) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 10, .estimate_s = 10, .compile_s = 5});
  exec.Set("b", {.per_query_s = 10, .estimate_s = 10, .compile_s = 5});
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 0),
                                    Req(2, "b", 0), Req(3, "a", 0)};
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs}, &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->compile_misses, 2u);  // first "a", first "b"
  EXPECT_EQ(report->compile_hits, 2u);
  EXPECT_FALSE(report->queries[0].compile_hit);
  EXPECT_DOUBLE_EQ(report->queries[0].compile.seconds(), 5.0);
  EXPECT_TRUE(report->queries[1].compile_hit);
  EXPECT_DOUBLE_EQ(report->queries[1].compile.seconds(), 0.0);
  EXPECT_FALSE(report->queries[2].compile_hit);
  EXPECT_TRUE(report->queries[3].compile_hit);
  // Slot occupancy: 15 + 10 + 15 + 10 back to back.
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 50.0);
}

TEST(SchedulerTest, ConcurrentDispatchWaitsForInFlightCompile) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 10, .estimate_s = 10, .compile_s = 5});
  // Both queries arrive at t=0 on 2 slots: the second is a cache hit but
  // must wait out the first's in-flight compile instead of starting a
  // training run with a design that does not exist until t=5.
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 0)};
  Scheduler sched({.slots = 2, .policy = Policy::kFcfs}, &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->queries[0].compile_hit);
  EXPECT_DOUBLE_EQ(report->queries[0].completion.seconds(), 15.0);
  EXPECT_TRUE(report->queries[1].compile_hit);
  EXPECT_DOUBLE_EQ(report->queries[1].compile.seconds(), 5.0);  // residual
  EXPECT_DOUBLE_EQ(report->queries[1].completion.seconds(), 15.0);
  // A third query dispatched after the compile finished pays nothing.
  reqs.push_back(Req(2, "a", 20));
  auto later = Scheduler({.slots = 2, .policy = Policy::kFcfs}, &exec)
                   .Run(reqs);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->queries[2].compile_hit);
  EXPECT_DOUBLE_EQ(later->queries[2].compile.seconds(), 0.0);
}

TEST(SchedulerTest, SlotsNeverOverlapAndStartAfterArrival) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 7, .estimate_s = 7});
  exec.Set("b", {.per_query_s = 3, .estimate_s = 3});
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 40; ++i) {
    reqs.push_back(Req(static_cast<uint64_t>(i), i % 3 ? "a" : "b", 0.5 * i));
  }
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    Scheduler sched({.slots = 3, .policy = policy}, &exec);
    auto report = sched.Run(reqs);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->queries.size(), reqs.size());
    std::map<uint32_t, dana::SimTime> slot_busy_until;
    dana::SimTime max_completion;
    for (const QueryStat& q : report->queries) {
      EXPECT_GE(q.start.nanos(), q.arrival.nanos());
      EXPECT_GE(q.slot, 0u);
      EXPECT_LT(q.slot, 3u);
      // Dispatch order visits each slot in nondecreasing free time, so a
      // query must start at or after its slot's previous completion.
      EXPECT_GE(q.start.nanos(), slot_busy_until[q.slot].nanos());
      slot_busy_until[q.slot] = q.completion;
      max_completion = dana::SimTime::Max(max_completion, q.completion);
      EXPECT_DOUBLE_EQ(q.completion.nanos(),
                       (q.start + q.compile + q.service).nanos());
    }
    EXPECT_DOUBLE_EQ(report->makespan.nanos(), max_completion.nanos());
    EXPECT_GT(report->ThroughputQps(), 0.0);
  }
}

TEST(SchedulerTest, SimultaneousArrivalsOnIdleSlotsStartAtArrival) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 5, .estimate_s = 5});
  // Both slots idle since t=0; both queries arrive at t=10. The second
  // dispatch must not ride slot 1's stale free time back to t=0 and start
  // before its own arrival (negative wait, early completion).
  std::vector<QueryRequest> reqs = {Req(0, "a", 10), Req(1, "a", 10)};
  Scheduler sched({.slots = 2, .policy = Policy::kFcfs}, &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  for (const QueryStat& q : report->queries) {
    EXPECT_DOUBLE_EQ(q.start.seconds(), 10.0);
    EXPECT_DOUBLE_EQ(q.Wait().seconds(), 0.0);
    EXPECT_DOUBLE_EQ(q.completion.seconds(), 15.0);
  }
}

TEST(SchedulerTest, MoreSlotsFinishNoLater) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 10, .estimate_s = 10});
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 16; ++i) reqs.push_back(Req(i, "a", 0));
  Scheduler one({.slots = 1, .policy = Policy::kFcfs}, &exec);
  Scheduler four({.slots = 4, .policy = Policy::kFcfs}, &exec);
  auto r1 = one.Run(reqs);
  auto r4 = four.Run(reqs);
  ASSERT_TRUE(r1.ok() && r4.ok());
  EXPECT_DOUBLE_EQ(r1->makespan.seconds(), 160.0);
  EXPECT_DOUBLE_EQ(r4->makespan.seconds(), 40.0);
}

TEST(SchedulerTest, SjfBeatsFcfsOnMeanLatencyForSkewedMix) {
  // A Zipfian mix over classes whose service times span 100x: the long jobs
  // head-of-line-block FCFS while SJF lets the swarm of short queries
  // through first.
  SyntheticExecutor exec;
  exec.Set("hot_short", {.per_query_s = 2, .estimate_s = 2});
  exec.Set("warm_mid", {.per_query_s = 20, .estimate_s = 20});
  exec.Set("cold_long", {.per_query_s = 200, .estimate_s = 200});
  DriverOptions opts;
  opts.num_queries = 120;
  opts.arrival_rate_qps = 0.12;  // keeps one slot saturated
  opts.zipf_exponent = 1.0;
  WorkloadDriver driver({"hot_short", "warm_mid", "cold_long"}, opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());

  Scheduler fcfs({.slots = 1, .policy = Policy::kFcfs}, &exec);
  Scheduler sjf({.slots = 1, .policy = Policy::kSjf}, &exec);
  auto r_fcfs = fcfs.Run(*stream);
  auto r_sjf = sjf.Run(*stream);
  ASSERT_TRUE(r_fcfs.ok() && r_sjf.ok());
  EXPECT_LT(r_sjf->MeanLatency().seconds(), r_fcfs->MeanLatency().seconds());
}

TEST(SchedulerTest, PolicyNamesRoundTrip) {
  for (Policy p : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    auto parsed = ParsePolicy(PolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_TRUE(ParsePolicy("lifo").status().IsInvalidArgument());
  EXPECT_TRUE(ParsePopularity("pareto").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Cross-query batched dispatch
// ---------------------------------------------------------------------------

TEST(BatchingTest, CoalescesCoResidentSameAlgorithmQueries) {
  SyntheticExecutor exec;
  // One pass streams for 10 s; each co-trained model adds 2 s of engine.
  exec.Set("a", {.shared_s = 10, .per_query_s = 2, .estimate_s = 12});
  // Query 0 dispatches alone at t=0 (nothing else is queued yet); 1..3
  // arrive while the slot is busy and coalesce into one batched pass.
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 1),
                                    Req(2, "a", 2), Req(3, "a", 3)};
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs, .max_batch = 4},
                  &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 4u);
  EXPECT_EQ(report->batches, 2u);
  EXPECT_EQ(report->queries[0].batch_size, 1u);
  EXPECT_DOUBLE_EQ(report->queries[0].completion.seconds(), 12.0);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(report->queries[i].batch_size, 3u);
    EXPECT_DOUBLE_EQ(report->queries[i].start.seconds(), 12.0);
    // Batched service: 10 + 3 * 2 = 16 s, all members complete together.
    EXPECT_DOUBLE_EQ(report->queries[i].service.seconds(), 16.0);
    EXPECT_DOUBLE_EQ(report->queries[i].completion.seconds(), 28.0);
  }
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 28.0);
  // vs unbatched: 4 queries x 12 s back to back = 48 s.
  Scheduler unbatched({.slots = 1, .policy = Policy::kFcfs}, &exec);
  auto base = unbatched.Run(reqs);
  ASSERT_TRUE(base.ok());
  EXPECT_DOUBLE_EQ(base->makespan.seconds(), 48.0);
  EXPECT_GT(report->ThroughputQps(), base->ThroughputQps());
}

TEST(BatchingTest, OnlyCoalescesMatchingAlgorithmUpToMaxBatch) {
  SyntheticExecutor exec;
  exec.Set("a", {.shared_s = 10, .per_query_s = 2, .estimate_s = 12});
  exec.Set("b", {.shared_s = 10, .per_query_s = 2, .estimate_s = 12});
  // Queued while busy: a, b, a, a, a. Batch limit 3: the head "a" takes
  // two more "a"s, skipping the interleaved "b".
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 1),
                                    Req(2, "b", 1.5), Req(3, "a", 2),
                                    Req(4, "a", 2.5), Req(5, "a", 3)};
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs, .max_batch = 3},
                  &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  // Dispatches: {0}, {1,3,4} (batch of 3 "a"s), {2} ("b"), {5}.
  ASSERT_EQ(exec.begun(), 4u);
  EXPECT_EQ(DispatchOrder(*report), (std::vector<uint64_t>{0, 1, 3, 4, 2, 5}));
  EXPECT_EQ(report->queries[1].batch_size, 3u);
  EXPECT_EQ(report->queries[4].workload_id, "b");
  EXPECT_EQ(report->queries[4].batch_size, 1u);
}

TEST(BatchingTest, MaxBatchOneReproducesPerQueryScheduleBitForBit) {
  SyntheticExecutor exec;
  exec.Set("hot", {.shared_s = 1, .per_query_s = 0.5, .estimate_s = 1.5});
  exec.Set("cold", {.shared_s = 4, .per_query_s = 3, .estimate_s = 7});
  DriverOptions opts;
  opts.num_queries = 60;
  opts.arrival_rate_qps = 0.7;
  WorkloadDriver driver({"hot", "cold"}, opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    Scheduler defaults({.slots = 2, .policy = policy}, &exec);
    Scheduler explicit_one(
        {.slots = 2, .policy = policy, .max_batch = 1, .sjf_aging_weight = 0},
        &exec);
    auto a = defaults.Run(*stream);
    auto b = explicit_one.Run(*stream);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->queries.size(), b->queries.size());
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].id, b->queries[i].id);
      EXPECT_EQ(a->queries[i].slot, b->queries[i].slot);
      EXPECT_EQ(a->queries[i].start.nanos(), b->queries[i].start.nanos());
      EXPECT_EQ(a->queries[i].completion.nanos(),
                b->queries[i].completion.nanos());
      EXPECT_EQ(a->queries[i].batch_size, 1u);
    }
  }
}

TEST(BatchingTest, BatchedScheduleIsDeterministic) {
  SyntheticExecutor exec;
  exec.Set("x", {.shared_s = 5, .per_query_s = 1, .estimate_s = 2});
  exec.Set("y", {.shared_s = 8, .per_query_s = 2, .estimate_s = 6});
  DriverOptions opts;
  opts.num_queries = 80;
  opts.arrival_rate_qps = 2.0;
  WorkloadDriver driver({"x", "y"}, opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  Scheduler s1({.slots = 2, .policy = Policy::kSjf, .max_batch = 4}, &exec);
  Scheduler s2({.slots = 2, .policy = Policy::kSjf, .max_batch = 4}, &exec);
  auto r1 = s1.Run(*stream);
  auto r2 = s2.Run(*stream);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->queries.size(), r2->queries.size());
  for (size_t i = 0; i < r1->queries.size(); ++i) {
    EXPECT_EQ(r1->queries[i].id, r2->queries[i].id);
    EXPECT_EQ(r1->queries[i].completion.nanos(),
              r2->queries[i].completion.nanos());
    EXPECT_EQ(r1->queries[i].batch_size, r2->queries[i].batch_size);
  }
  EXPECT_EQ(r1->batches, r2->batches);
}

TEST(BatchingTest, BatchCompileMissChargedOncePerBatch) {
  SyntheticExecutor exec;
  exec.Set("a", {.shared_s = 10, .per_query_s = 2, .estimate_s = 12,
                 .compile_s = 5});
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 0),
                                    Req(2, "a", 0)};
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs, .max_batch = 4},
                  &exec);
  auto report = sched.Run(reqs);
  ASSERT_TRUE(report.ok());
  // All three arrive at t=0 and form one batch: one design compile.
  EXPECT_EQ(report->batches, 1u);
  EXPECT_EQ(report->compile_misses, 1u);
  EXPECT_EQ(report->compile_hits, 2u);
  // compile (5) + shared (10) + 3 per-query (6) = 21 s.
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 21.0);
}

// ---------------------------------------------------------------------------
// SJF aging (starvation fix)
// ---------------------------------------------------------------------------

/// One long job stuck behind an endless stream of shorts on one slot.
std::vector<QueryRequest> StarvationStream() {
  std::vector<QueryRequest> reqs;
  reqs.push_back(Req(0, "long", 0.0));
  // Two shorts arrive per second for 100 s; each takes 1 s of service, so
  // pure SJF always finds a queued short and the long job runs dead last.
  for (int i = 0; i < 200; ++i) {
    reqs.push_back(Req(1 + static_cast<uint64_t>(i), "short", 0.5 * i));
  }
  return reqs;
}

TEST(SjfAgingTest, PureSjfStarvesTheLongJob) {
  SyntheticExecutor exec;
  exec.Set("long", {.per_query_s = 50, .estimate_s = 50});
  exec.Set("short", {.per_query_s = 1, .estimate_s = 1});
  Scheduler sched({.slots = 1, .policy = Policy::kSjf}, &exec);
  auto report = sched.Run(StarvationStream());
  ASSERT_TRUE(report.ok());
  // The long job is the very last dispatch of the whole run.
  EXPECT_EQ(report->queries.back().id, 0u);
  EXPECT_DOUBLE_EQ(report->queries.back().completion.nanos(),
                   report->makespan.nanos());
}

TEST(SjfAgingTest, AgingBonusBoundsTheLongJobsWait) {
  SyntheticExecutor exec;
  exec.Set("long", {.per_query_s = 50, .estimate_s = 50});
  exec.Set("short", {.per_query_s = 1, .estimate_s = 1});
  Scheduler aged(
      {.slots = 1, .policy = Policy::kSjf, .sjf_aging_weight = 4.0}, &exec);
  auto report = aged.Run(StarvationStream());
  ASSERT_TRUE(report.ok());
  const QueryStat* long_job = nullptr;
  for (const QueryStat& q : report->queries) {
    if (q.id == 0) long_job = &q;
  }
  ASSERT_NE(long_job, nullptr);
  // Queued shorts age too (the backlog's oldest short is roughly half the
  // clock old), so with weight w the long job overtakes around
  // 49 / (w/2) s. For w=4 that is ~25 s — far from the ~200 s starvation.
  EXPECT_LT(long_job->Wait().seconds(), 40.0);
  EXPECT_LT(long_job->completion.nanos(), report->makespan.nanos());
  // Everything still completes exactly once, with no idle time added.
  EXPECT_EQ(report->queries.size(), 201u);
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 250.0);
}

// ---------------------------------------------------------------------------
// Closed-loop (think-time) mode
// ---------------------------------------------------------------------------

TEST(ClosedLoopTest, SingleSessionSerializesWithThinkTime) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 2, .estimate_s = 2});
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs}, &exec);
  auto report = sched.RunClosedLoop({{"a", "a", "a"}},
                                    dana::SimTime::Seconds(3));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 3u);
  // submit 0 -> done 2, think to 5 -> done 7, think to 10 -> done 12.
  EXPECT_DOUBLE_EQ(report->queries[0].arrival.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(report->queries[0].completion.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(report->queries[1].arrival.seconds(), 5.0);
  EXPECT_DOUBLE_EQ(report->queries[1].completion.seconds(), 7.0);
  EXPECT_DOUBLE_EQ(report->queries[2].arrival.seconds(), 10.0);
  EXPECT_DOUBLE_EQ(report->queries[2].completion.seconds(), 12.0);
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 12.0);
}

TEST(ClosedLoopTest, ZeroThinkKeepsOneSlotSaturated) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 2, .estimate_s = 2});
  Scheduler sched({.slots = 1, .policy = Policy::kFcfs}, &exec);
  // Two sessions with zero think time on one slot: the slot never idles,
  // so the makespan is exactly the summed service.
  auto report =
      sched.RunClosedLoop({{"a", "a"}, {"a", "a"}}, dana::SimTime::Zero());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 4u);
  EXPECT_DOUBLE_EQ(report->makespan.seconds(), 8.0);
  for (const QueryStat& q : report->queries) {
    EXPECT_GE(q.start.nanos(), q.arrival.nanos());
  }
}

TEST(ClosedLoopTest, DeterministicAndBatchable) {
  SyntheticExecutor exec;
  exec.Set("a", {.shared_s = 4, .per_query_s = 1, .estimate_s = 5});
  exec.Set("b", {.shared_s = 6, .per_query_s = 2, .estimate_s = 8});
  std::vector<std::vector<std::string>> sessions = {
      {"a", "b", "a"}, {"a", "a"}, {"b", "a", "a"}};
  Scheduler s1({.slots = 1, .policy = Policy::kFcfs, .max_batch = 4}, &exec);
  Scheduler s2({.slots = 1, .policy = Policy::kFcfs, .max_batch = 4}, &exec);
  auto r1 = s1.RunClosedLoop(sessions, dana::SimTime::Seconds(0.5));
  auto r2 = s2.RunClosedLoop(sessions, dana::SimTime::Seconds(0.5));
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->queries.size(), 8u);
  ASSERT_EQ(r2->queries.size(), 8u);
  for (size_t i = 0; i < r1->queries.size(); ++i) {
    EXPECT_EQ(r1->queries[i].id, r2->queries[i].id);
    EXPECT_EQ(r1->queries[i].completion.nanos(),
              r2->queries[i].completion.nanos());
  }
  // The three t=0 submissions of "a"-headed sessions batch where possible.
  EXPECT_LT(r1->batches, 8u);
}

TEST(ClosedLoopTest, DriverDealsSessionsReproducibly) {
  DriverOptions opts;
  opts.num_queries = 30;
  opts.sessions = 4;
  WorkloadDriver driver(SixClassCatalog(), opts);
  auto s1 = driver.GenerateSessions();
  auto s2 = driver.GenerateSessions();
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_EQ(s1->size(), 4u);
  size_t total = 0;
  for (const auto& script : *s1) total += script.size();
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(*s1, *s2);
  // Same seed, same picks as the open stream: flattening the scripts
  // round-robin recovers the open stream's algorithm sequence.
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  for (size_t i = 0; i < stream->size(); ++i) {
    EXPECT_EQ((*stream)[i].workload_id, (*s1)[i % 4][i / 4]) << i;
  }
}

TEST(ClosedLoopTest, RejectsZeroSessions) {
  DriverOptions opts;
  opts.sessions = 0;
  WorkloadDriver driver(SixClassCatalog(), opts);
  EXPECT_TRUE(driver.GenerateSessions().status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Slot-affinity dispatch
// ---------------------------------------------------------------------------

TEST(AffinityTest, DispatchesToTheWarmSlot) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 10, .estimate_s = 10});
  exec.SetWarm("a", /*slot=*/1, 1.0);
  std::vector<QueryRequest> reqs = {Req(0, "a", 0)};
  // Affinity-blind: earliest-free = lowest index = slot 0, a cold run.
  auto blind = Scheduler({.slots = 2, .policy = Policy::kFcfs}, &exec)
                   .Run(reqs);
  ASSERT_TRUE(blind.ok());
  EXPECT_EQ(blind->queries[0].slot, 0u);
  EXPECT_DOUBLE_EQ(blind->queries[0].warm_fraction, 0.0);
  // Affinity on: both slots are free, slot 1 holds the table.
  auto warm = Scheduler(
                  {.slots = 2, .policy = Policy::kFcfs, .affinity_weight = 0.5},
                  &exec)
                  .Run(reqs);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->queries[0].slot, 1u);
  EXPECT_DOUBLE_EQ(warm->queries[0].warm_fraction, 1.0);
  EXPECT_DOUBLE_EQ(warm->WarmHitRate(), 1.0);
  EXPECT_DOUBLE_EQ(blind->WarmHitRate(), 0.0);
}

TEST(AffinityTest, WarmSlotTiesBreakLikeTheBlindRule) {
  SyntheticExecutor exec;
  exec.Set("a", {.per_query_s = 5, .estimate_s = 5});
  // No warmth anywhere: affinity on must still pick the blind slot.
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 6)};
  auto report = Scheduler(
                    {.slots = 2, .policy = Policy::kFcfs,
                     .affinity_weight = 1.0},
                    &exec)
                    .Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries[0].slot, 0u);
  // At t=6 slot 0 is free again (freed at 5) and slot 1 never used; the
  // blind rule picks slot 1 (earliest free time 0), so must affinity.
  EXPECT_EQ(report->queries[1].slot, 1u);
}

TEST(AffinityTest, FcfsKeepsArrivalOrderUnderAffinity) {
  SyntheticExecutor exec;
  exec.Set("cold", {.per_query_s = 10, .estimate_s = 10});
  exec.Set("warm", {.per_query_s = 10, .estimate_s = 10});
  exec.SetWarm("warm", 0, 1.0);
  // Both queue behind the first query on one slot; FCFS with affinity must
  // not jump the warm candidate past the earlier cold arrival.
  std::vector<QueryRequest> reqs = {Req(0, "cold", 0), Req(1, "cold", 1),
                                    Req(2, "warm", 2)};
  auto report = Scheduler(
                    {.slots = 1, .policy = Policy::kFcfs,
                     .affinity_weight = 1.0},
                    &exec)
                    .Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DispatchOrder(*report), (std::vector<uint64_t>{0, 1, 2}));
}

TEST(AffinityTest, SjfOrdersByResidencyAwareEstimate) {
  SyntheticExecutor exec;
  exec.Set("blocker", {.per_query_s = 100, .estimate_s = 100});
  exec.Set("coldshort", {.per_query_s = 10, .estimate_s = 10});
  // The executor's own cold/warm interpolation: a fully warm "warmlong"
  // run is expected to take 6 s, not its cold 12 s estimate.
  exec.Set("warmlong",
           {.per_query_s = 12, .estimate_s = 12, .warm_estimate_s = 6});
  exec.SetWarm("warmlong", 0, 1.0);
  std::vector<QueryRequest> reqs = {Req(0, "blocker", 0),
                                    Req(1, "coldshort", 1),
                                    Req(2, "warmlong", 2)};
  // Pure SJF: the shorter a-priori estimate goes first.
  auto pure = Scheduler({.slots = 1, .policy = Policy::kSjf}, &exec)
                  .Run(reqs);
  ASSERT_TRUE(pure.ok());
  EXPECT_EQ(DispatchOrder(*pure), (std::vector<uint64_t>{0, 1, 2}));
  // Affinity SJF orders by EstimateAtWarmth at the free slot's warmth: the
  // warm candidate's 6 s beats the cold short job's 10 s, so it overtakes.
  auto warm = Scheduler(
                  {.slots = 1, .policy = Policy::kSjf, .affinity_weight = 0.5},
                  &exec)
                  .Run(reqs);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(DispatchOrder(*warm), (std::vector<uint64_t>{0, 2, 1}));
}

TEST(AffinityTest, WeightZeroNeverConsultsWarmthBitForBit) {
  // Two identical streams on two executors — one with warmth pinned, one
  // stone cold. At affinity_weight = 0 the schedules must match bit for
  // bit: the affinity machinery may not even perturb tie-breaks.
  DriverOptions opts;
  opts.num_queries = 80;
  opts.arrival_rate_qps = 0.8;
  WorkloadDriver driver({"x", "y", "z"}, opts);
  auto stream = driver.Generate();
  ASSERT_TRUE(stream.ok());
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    SyntheticExecutor with_warmth;
    SyntheticExecutor without;
    for (SyntheticExecutor* e : {&with_warmth, &without}) {
      e->Set("x", {.shared_s = 2, .per_query_s = 1, .estimate_s = 3});
      e->Set("y", {.shared_s = 5, .per_query_s = 2, .estimate_s = 7});
      e->Set("z", {.shared_s = 9, .per_query_s = 3, .estimate_s = 12});
    }
    with_warmth.SetWarm("x", 0, 1.0);
    with_warmth.SetWarm("z", 1, 0.7);
    auto a = Scheduler({.slots = 2, .policy = policy, .max_batch = 3,
                        .affinity_weight = 0.0},
                       &with_warmth)
                 .Run(*stream);
    auto b = Scheduler({.slots = 2, .policy = policy, .max_batch = 3},
                       &without)
                 .Run(*stream);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->queries.size(), b->queries.size());
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].id, b->queries[i].id);
      EXPECT_EQ(a->queries[i].slot, b->queries[i].slot);
      EXPECT_EQ(a->queries[i].start.nanos(), b->queries[i].start.nanos());
      EXPECT_EQ(a->queries[i].completion.nanos(),
                b->queries[i].completion.nanos());
    }
  }
}

TEST(WarmHitAccountingTest, UnmodeledExecutorsAreExcludedNotCold) {
  // A static-cache executor must not skew warm-hit rates: with no
  // residency-modeled query in the report, the rate is NaN ("-"), not 0%
  // (all-cold) and not 100% (its static fraction).
  SyntheticExecutor unmodeled;
  unmodeled.Set("a", {.per_query_s = 5, .estimate_s = 5});
  // Static: every run "warm", but nothing tracked it.
  unmodeled.SetWarm("a", 0, 1.0, /*modeled=*/false);
  std::vector<QueryRequest> reqs = {Req(0, "a", 0), Req(1, "a", 1)};
  auto report = Scheduler({.slots = 1, .policy = Policy::kFcfs}, &unmodeled)
                    .Run(reqs);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(std::isnan(report->WarmHitRate()));
  EXPECT_TRUE(std::isnan(report->MeanWarmFraction()));

  // A residency-modeled executor keeps reporting real rates.
  SyntheticExecutor modeled;
  modeled.Set("a", {.per_query_s = 5, .estimate_s = 5});
  modeled.SetWarm("a", 0, 1.0);
  auto tracked = Scheduler({.slots = 1, .policy = Policy::kFcfs}, &modeled)
                     .Run(reqs);
  ASSERT_TRUE(tracked.ok());
  EXPECT_DOUBLE_EQ(tracked->WarmHitRate(), 1.0);
  EXPECT_DOUBLE_EQ(tracked->MeanWarmFraction(), 1.0);
}

// ---------------------------------------------------------------------------
// Cold-start regression (DanaQueryExecutor residency charging)
// ---------------------------------------------------------------------------

TEST(ColdStartTest, FreshSlotPaysColdThenWarmRepeat) {
  DanaQueryExecutor executor;
  // First query on a fresh slot: genuinely cold, no silent re-prepare.
  auto first = RunWhole(executor, QueryBatch::Single("wlan", 0, /*slot=*/0));
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(first->exec->warm_fraction(), 0.0);
  // A repeat on the same slot finds the table resident and runs strictly
  // faster.
  auto repeat = RunWhole(executor, QueryBatch::Single("wlan", 1, /*slot=*/0));
  ASSERT_TRUE(repeat.ok());
  EXPECT_DOUBLE_EQ(repeat->exec->warm_fraction(), 1.0);
  EXPECT_LT(repeat->slice.service.nanos(), first->slice.service.nanos());
  // Another fresh slot is cold again — pools do not share residency.
  auto other = RunWhole(executor, QueryBatch::Single("wlan", 2, /*slot=*/1));
  ASSERT_TRUE(other.ok());
  EXPECT_DOUBLE_EQ(other->exec->warm_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(other->slice.service.nanos(), first->slice.service.nanos());
  // WarmFraction mirrors the model without running anything.
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 0), 1.0);
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 2), 0.0);
  // ResetResidency returns every slot to cold.
  executor.ResetResidency();
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 0), 0.0);
}

TEST(EndpointMemoTest, SameEndpointRunsTheSimulatorOnce) {
  obs::MetricRegistry metrics;
  DanaQueryExecutor::Options options;
  options.metrics = &metrics;
  DanaQueryExecutor executor(options);
  // Two fresh slots price the same (workload, batch size, cold endpoint):
  // the first measures it through the simulator, the second reuses the
  // memoized profile.
  auto first = RunWhole(executor, QueryBatch::Single("wlan", 0, /*slot=*/0));
  ASSERT_TRUE(first.ok());
  auto second = RunWhole(executor, QueryBatch::Single("wlan", 1, /*slot=*/1));
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first->exec->warm_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(second->exec->warm_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter("exec.endpoint_measurements")->value(),
                   1.0);
  EXPECT_EQ(second->slice.service.nanos(), first->slice.service.nanos());
  EXPECT_EQ(second->slice.shared.nanos(), first->slice.shared.nanos());
  EXPECT_EQ(second->slice.per_query.nanos(), first->slice.per_query.nanos());
}

// ---------------------------------------------------------------------------
// Workload resolution and the pre-sorted stream
// ---------------------------------------------------------------------------

/// Every simulated field of two reports, compared exactly.
void ExpectSameReport(const ScheduleReport& a, const ScheduleReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const QueryStat& x = a.queries[i];
    const QueryStat& y = b.queries[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(x.workload_id, y.workload_id) << i;
    EXPECT_EQ(x.slot, y.slot) << i;
    EXPECT_EQ(x.start.nanos(), y.start.nanos()) << i;
    EXPECT_EQ(x.completion.nanos(), y.completion.nanos()) << i;
    EXPECT_EQ(x.compile.nanos(), y.compile.nanos()) << i;
    EXPECT_EQ(x.service.nanos(), y.service.nanos()) << i;
    EXPECT_EQ(x.batch_size, y.batch_size) << i;
    EXPECT_EQ(x.warm_fraction, y.warm_fraction) << i;
  }
  EXPECT_EQ(a.makespan.nanos(), b.makespan.nanos());
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.compile_misses, b.compile_misses);
}

TEST(ResolveTest, UnknownWorkloadFailsBeforeTheFirstEvent) {
  obs::MetricRegistry metrics;
  DanaQueryExecutor::Options options;
  options.metrics = &metrics;
  DanaQueryExecutor executor(options);
  // FCFS asks for no estimate: only resolution can catch the unknown id
  // before "wlan" dispatches at t = 0 and runs the simulator.
  Scheduler sched({.slots = 2, .policy = Policy::kFcfs}, &executor);
  auto report = sched.Run({Req(0, "wlan", 0), Req(1, "no_such_workload", 1),
                           Req(2, "wlan", 2)});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
  EXPECT_NE(report.status().message().find("no_such_workload"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_DOUBLE_EQ(metrics.counter("exec.endpoint_measurements")->value(),
                   0.0);
}

TEST(ResolveTest, HandlesAreStablePerExecutor) {
  DanaQueryExecutor executor;
  auto first = executor.Resolve("wlan");
  auto other = executor.Resolve("sn_lrmf");
  auto again = executor.Resolve("wlan");
  ASSERT_TRUE(first.ok() && other.ok() && again.ok());
  EXPECT_EQ(first->owner, &executor);
  EXPECT_EQ(again->index, first->index);
  EXPECT_NE(other->index, first->index);
  EXPECT_TRUE(executor.Resolve("no_such_workload").status().IsNotFound());
}

TEST(SchedulerTest, ShuffledStreamWithArrivalTiesMatchesTheSortedStream) {
  SyntheticExecutor exec;
  exec.Set("a", {.shared_s = 2, .per_query_s = 1, .estimate_s = 3,
                 .compile_s = 0.5});
  exec.Set("b", {.shared_s = 4, .per_query_s = 1, .estimate_s = 5,
                 .compile_s = 0.5});
  exec.Set("c", {.shared_s = 1, .per_query_s = 0.5, .estimate_s = 1.5,
                 .compile_s = 0.5});
  // Arrivals on a coarse grid, so most instants hold several requests and
  // only the id orders them.
  std::vector<QueryRequest> sorted;
  const char* names[] = {"a", "b", "c"};
  for (uint64_t id = 0; id < 90; ++id) {
    sorted.push_back(Req(id, names[(id * 7) % 3], static_cast<double>(id / 4)));
  }
  std::vector<QueryRequest> shuffled = sorted;
  dana::Rng rng(0x5eed);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.UniformInt(i + 1)]);
  }
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(),
                              [](const QueryRequest& x, const QueryRequest& y) {
                                return x.id < y.id;
                              }));
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    Scheduler sched({.slots = 3, .policy = policy, .max_batch = 3}, &exec);
    auto from_sorted = sched.Run(sorted);
    auto from_shuffled = sched.Run(shuffled);
    ASSERT_TRUE(from_sorted.ok() && from_shuffled.ok());
    ExpectSameReport(*from_sorted, *from_shuffled);
  }
}

}  // namespace
}  // namespace dana::sched
