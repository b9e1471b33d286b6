// Golden scheduler regression suite (ctest label: sched_golden).
//
// Pins the exact schedule — dispatch order, latency percentiles, makespan,
// batching and compile accounting — that each policy produces for one
// seeded Zipfian request stream over a synthetic executor, so a refactor
// that silently reshuffles schedules (tie-break drift, queue-order bugs,
// float reassociation) fails the build instead of shipping. The pinned
// values are the PR 2 scheduler's output; the affinity-weight-zero runs
// must keep reproducing them bit for bit no matter how the affinity
// machinery evolves.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "support/synthetic_executor.h"

namespace dana::sched {
namespace {

/// Deterministic synthetic costs: batch of K occupies shared + K*per_query.
struct GoldenExecutor : SyntheticExecutor {
  GoldenExecutor() {
    Set("hot", {.shared_s = 2, .per_query_s = 0.5, .estimate_s = 3,
                .compile_s = 1});
    Set("warm", {.shared_s = 4, .per_query_s = 1, .estimate_s = 6,
                 .compile_s = 1});
    Set("mid", {.shared_s = 8, .per_query_s = 2, .estimate_s = 11,
                .compile_s = 2});
    Set("tail", {.shared_s = 20, .per_query_s = 5, .estimate_s = 26,
                 .compile_s = 3});
  }
};

/// The one seeded stream every golden run schedules: Zipfian (s = 1.1)
/// over four classes, 40 queries at 0.5 qps — saturating two slots so
/// queues form and policies actually differ.
std::vector<QueryRequest> GoldenStream() {
  DriverOptions opts;
  opts.seed = 0x5EEDFACE;
  opts.num_queries = 40;
  opts.arrival_rate_qps = 0.5;
  opts.popularity = Popularity::kZipfian;
  opts.zipf_exponent = 1.1;
  WorkloadDriver driver({"hot", "warm", "mid", "tail"}, opts);
  auto stream = driver.Generate();
  EXPECT_TRUE(stream.ok());
  return *stream;
}

ScheduleReport RunGolden(Policy policy, double affinity_weight) {
  GoldenExecutor exec;
  Scheduler scheduler({.slots = 2,
                       .policy = policy,
                       .max_batch = 2,
                       .sjf_aging_weight = 0,
                       .affinity_weight = affinity_weight},
                      &exec);
  auto report = scheduler.Run(GoldenStream());
  EXPECT_TRUE(report.ok());
  return *report;
}

std::vector<uint64_t> DispatchOrder(const ScheduleReport& report) {
  std::vector<uint64_t> order;
  for (const QueryStat& q : report.queries) order.push_back(q.id);
  return order;
}

struct Golden {
  std::vector<uint64_t> order;
  double p50_s, p95_s, p99_s, makespan_s;
  uint64_t batches, compile_hits;
};

void ExpectMatchesGolden(const ScheduleReport& report, const Golden& golden) {
  EXPECT_EQ(DispatchOrder(report), golden.order);
  EXPECT_NEAR(report.LatencyPercentile(50).seconds(), golden.p50_s, 1e-6);
  EXPECT_NEAR(report.LatencyPercentile(95).seconds(), golden.p95_s, 1e-6);
  EXPECT_NEAR(report.LatencyPercentile(99).seconds(), golden.p99_s, 1e-6);
  EXPECT_NEAR(report.makespan.seconds(), golden.makespan_s, 1e-6);
  EXPECT_EQ(report.batches, golden.batches);
  EXPECT_EQ(report.compile_hits, golden.compile_hits);
}

// Regeneration aid (runs only with --gtest_also_run_disabled_tests): prints
// the golden literals below. Only paste new values for an *intentional*
// schedule change, and say why in the commit.
TEST(SchedulerGoldenTest, DISABLED_PrintGoldens) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    ScheduleReport r = RunGolden(policy, 0.0);
    std::printf("// %s\n{{", PolicyName(policy));
    for (uint64_t id : DispatchOrder(r)) std::printf("%llu, ",
        static_cast<unsigned long long>(id));
    std::printf("},\n %.9f, %.9f, %.9f, %.9f, %llu, %llu}\n",
                r.LatencyPercentile(50).seconds(),
                r.LatencyPercentile(95).seconds(),
                r.LatencyPercentile(99).seconds(), r.makespan.seconds(),
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.compile_hits));
  }
}

const Golden& GoldenFor(Policy policy) {
  static const std::map<Policy, Golden> goldens = {
      {Policy::kFcfs,
       {{0,  1,  2,  3,  4,  5,  6,  7,  8,  13, 9,  16, 10, 11,
         12, 14, 15, 17, 25, 18, 19, 20, 21, 22, 23, 24, 26, 27,
         31, 28, 29, 30, 32, 33, 35, 34, 36, 37, 38, 39},
        28.990068535, 44.741890129, 51.090790778, 126.129806968, 26, 36}},
      {Policy::kSjf,
       {{0,  1,  2,  3,  4, 5,  6,  7,  11, 12, 14, 15, 18, 19,
         20, 21, 22, 23, 9, 16, 24, 28, 29, 30, 26, 32, 33, 8,
         13, 35, 37, 36, 17, 25, 27, 31, 38, 39, 10, 34},
        6.777569800, 53.432328531, 78.424873021, 129.992746380, 30, 36}},
      {Policy::kRoundRobin,
       {{0,  1,  2,  3,  4,  5,  6,  7,  8,  13, 9,  16, 11, 12,
         10, 17, 25, 24, 26, 14, 15, 34, 27, 31, 36, 18, 19, 38,
         39, 20, 21, 22, 23, 28, 29, 30, 32, 33, 35, 37},
        32.445490629, 57.741801447, 59.297803183, 124.629806968, 26, 36}},
  };
  return goldens.at(policy);
}

TEST(SchedulerGoldenTest, FcfsScheduleIsPinned) {
  ExpectMatchesGolden(RunGolden(Policy::kFcfs, 0.0), GoldenFor(Policy::kFcfs));
}

TEST(SchedulerGoldenTest, SjfScheduleIsPinned) {
  ExpectMatchesGolden(RunGolden(Policy::kSjf, 0.0), GoldenFor(Policy::kSjf));
}

TEST(SchedulerGoldenTest, RoundRobinScheduleIsPinned) {
  ExpectMatchesGolden(RunGolden(Policy::kRoundRobin, 0.0),
                      GoldenFor(Policy::kRoundRobin));
}

/// The scheduler's default options (no affinity field touched) must equal
/// the explicit affinity_weight = 0 runs — i.e. the pinned PR 2 schedules.
TEST(SchedulerGoldenTest, DefaultOptionsReproduceTheGoldens) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    GoldenExecutor exec;
    Scheduler scheduler({.slots = 2, .policy = policy, .max_batch = 2},
                        &exec);
    auto report = scheduler.Run(GoldenStream());
    ASSERT_TRUE(report.ok());
    ExpectMatchesGolden(*report, GoldenFor(policy));
  }
}

/// Preemption off is the golden scheduler: explicit zero preemption and
/// batching-window knobs (with every other preemptive option primed) must
/// keep reproducing the pinned PR 3 schedules bit for bit, no matter how
/// the epoch-slicing machinery evolves.
TEST(SchedulerGoldenTest, PreemptionOffReproducesTheGoldens) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    GoldenExecutor exec;
    Scheduler scheduler({.slots = 2,
                         .policy = policy,
                         .max_batch = 2,
                         .sjf_aging_weight = 0,
                         .affinity_weight = 0,
                         .preemption_quantum_epochs = 0,
                         .context_switch_cost = dana::SimTime::Seconds(30),
                         .batch_window = dana::SimTime::Zero()},
                        &exec);
    auto report = scheduler.Run(GoldenStream());
    ASSERT_TRUE(report.ok());
    ExpectMatchesGolden(*report, GoldenFor(policy));
  }
}

/// Back-to-back runs are bit-for-bit identical — the property the CI
/// determinism step double-checks by diffing two -L sched_golden logs.
TEST(SchedulerGoldenTest, RepeatRunsAreBitForBit) {
  for (Policy policy : {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin}) {
    ScheduleReport a = RunGolden(policy, 0.0);
    ScheduleReport b = RunGolden(policy, 0.0);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].id, b.queries[i].id);
      EXPECT_EQ(a.queries[i].slot, b.queries[i].slot);
      EXPECT_EQ(a.queries[i].start.nanos(), b.queries[i].start.nanos());
      EXPECT_EQ(a.queries[i].completion.nanos(),
                b.queries[i].completion.nanos());
    }
  }
}

}  // namespace
}  // namespace dana::sched
