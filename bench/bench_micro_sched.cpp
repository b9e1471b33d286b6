// Scheduler microbenchmark: simulator throughput (sim_qps), scheduled
// queries per wall second, of two kinds of point.
//
// The r<requests>.s<slots> sweep and the event point drive the scheduler
// tests' constant-cost SyntheticExecutor (no cycle-level simulator, no
// pools), so their wall time is the scheduler's own event loop: queue
// pushes/pops under each policy, batching coalescing, compile charging,
// and stat assembly. The arrival rate overloads the machine ~3x so queues
// grow deep — exactly the regime where the pending-queue and slot-scan
// data structures dominate. Every policy runs the same seeded stream; sim_qps
// for a point is scheduled-queries-per-wall-second across all three
// policies, best of several repetitions (max over reps is the standard
// microbenchmark noise filter; the simulated output itself is
// deterministic and identical across reps).
//
// The priced point drives the real DanaQueryExecutor in the end-to-end
// sched_open shape at a CI size: the public catalog ranked shortest
// estimate first, Zipf 0.99 at 80% of 4 slots, SJF with batching and
// affinity. An untimed warm-up run measures every service endpoint the
// stream needs, so each timed rep (from cold slot pools) is the event
// loop plus the executor's residency reads, pricing and pool sweeps.
//
// Emits BENCH_micro_sched.json with one gated (better: higher) sim_qps
// metric per point; the CI bench-telemetry job compares it against
// bench/baselines/BENCH_micro_sched.json at a wide tolerance (wall-clock
// metrics jitter on shared runners). The sweep is already CI-sized, so
// DANA_BENCH_FAST does not change its shape (and is deliberately not
// recorded in the config: the committed baseline compares against both
// local and CI runs).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.h"
#include "common/table_printer.h"
#include "obs/stats_writer.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "support/synthetic_executor.h"

namespace {

using namespace dana;

/// Deterministic synthetic costs, ascending with catalog rank so the
/// Zipf-hottest algorithms are the short ones (as bench_sched ranks them).
void SetStubCosts(const std::vector<std::string>& catalog,
                  sched::SyntheticExecutor& executor) {
  for (size_t i = 0; i < catalog.size(); ++i) {
    const double rank = static_cast<double>(i);
    const double shared_s = 0.8 + 0.45 * rank;
    const double per_query_s = 0.15 + 0.04 * rank;
    executor.Set(catalog[i], {.shared_s = shared_s,
                              .per_query_s = per_query_s,
                              .estimate_s = shared_s + per_query_s,
                              .compile_s = 0.4});
  }
}

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// The priced point: a CI-sized sched_open over the real executor (see the
/// file comment). Returns the best rep's wall time in seconds.
dana::Result<double> RunPricedPoint(uint32_t queries, uint32_t slots) {
  sched::DanaQueryExecutor executor;
  std::vector<std::pair<double, std::string>> ranked;
  for (const ml::Workload& w : ml::PublicWorkloads()) {
    DANA_ASSIGN_OR_RETURN(dana::SimTime est, executor.Estimate(w.id));
    ranked.emplace_back(est.seconds(), w.id);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> catalog;
  for (const auto& [est, id] : ranked) catalog.push_back(id);

  constexpr double kZipfExponent = 0.99;
  DANA_ASSIGN_OR_RETURN(
      double mean_service,
      sched::WeightedMeanServiceSeconds(
          executor, catalog, sched::Popularity::kZipfian, kZipfExponent));
  sched::DriverOptions dopts;
  dopts.num_queries = queries;
  dopts.zipf_exponent = kZipfExponent;
  dopts.arrival_rate_qps = 0.8 * static_cast<double>(slots) / mean_service;
  DANA_ASSIGN_OR_RETURN(std::vector<sched::QueryRequest> stream,
                        sched::WorkloadDriver(catalog, dopts).Generate());

  sched::SchedulerOptions sopts;
  sopts.slots = slots;
  sopts.policy = sched::Policy::kSjf;
  sopts.max_batch = 4;
  sopts.affinity_weight = 1.0;
  auto rep = [&]() -> dana::Status {
    executor.ResetResidency();
    return sched::Scheduler(sopts, &executor).Run(stream).status();
  };
  DANA_RETURN_NOT_OK(rep());  // warm-up: measures the endpoints, untimed
  return bench::BestRep(rep);
}

struct PointResult {
  double sim_qps = 0.0;  ///< best over reps
  double wall_s = 0.0;   ///< wall of the best rep
  int reps = 0;
};

}  // namespace

int main() {
  bench::Harness::PrintHeader(
      "Scheduler event-loop throughput: request-count x slots sweep",
      "scoreboard for the simulator hot path (ROADMAP raw-speed item)");

  obs::StatsWriter stats("micro_sched");

  std::vector<std::string> catalog;
  for (int i = 0; i < 12; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "w%02d", i);
    catalog.emplace_back(buf);
  }
  stats.SetConfig("catalog", static_cast<double>(catalog.size()));
  stats.SetConfig("requests", "1000,10000");
  stats.SetConfig("slots", "2,8");
  stats.SetConfig("policies", "fcfs,sjf,rr");
  stats.SetConfig("max_batch", 4.0);
  stats.SetConfig("event_point", "r10000.s8 window=10ms interactive=3");
  constexpr uint32_t kPricedQueries = 20000;
  constexpr uint32_t kPricedSlots = 4;
  stats.SetConfig("priced_point",
                  "public catalog, 20000 queries, 4 slots, sjf, "
                  "max_batch 4, affinity 1.0");

  const std::vector<uint32_t> request_counts = {1000, 10000};
  const std::vector<uint32_t> slot_counts = {2, 8};
  const std::vector<sched::Policy> policies = {
      sched::Policy::kFcfs, sched::Policy::kSjf, sched::Policy::kRoundRobin};

  TablePrinter table(
      {"point", "queries", "reps", "best wall (s)", "sim qps"});

  // One rep schedules the point's stream under all three policies; reps
  // repeat until the point has either 5 reps or ~0.5 s of wall time, and
  // the best rep wins. A pre-optimization build takes seconds per rep at
  // the 10k points and simply stops after the first.
  auto run_point = [&](uint32_t requests, uint32_t slots, bool event_path,
                       const char* label) -> int {
    sched::DriverOptions dopts;
    dopts.num_queries = requests;
    // ~3x overload: queues grow deep and the queue structures dominate.
    dopts.arrival_rate_qps = 2.0 * static_cast<double>(slots);
    dopts.zipf_exponent = 1.1;
    if (event_path) dopts.interactive_ranks = 3;
    sched::WorkloadDriver driver(catalog, dopts);
    auto stream = driver.Generate();
    if (!stream.ok()) {
      std::fprintf(stderr, "driver: %s\n",
                   stream.status().ToString().c_str());
      return 1;
    }

    sched::SyntheticExecutor executor;
    SetStubCosts(catalog, executor);
    PointResult best;
    const auto point_start = std::chrono::steady_clock::now();
    while (best.reps < 5 && Elapsed(point_start) < 0.5) {
      const auto rep_start = std::chrono::steady_clock::now();
      uint64_t scheduled = 0;
      for (sched::Policy policy : policies) {
        sched::SchedulerOptions sopts;
        sopts.slots = slots;
        sopts.policy = policy;
        sopts.max_batch = 4;
        if (event_path) {
          sopts.batch_window = dana::SimTime::Millis(10);
        }
        sched::Scheduler scheduler(sopts, &executor);
        auto report = scheduler.Run(*stream);
        if (!report.ok()) {
          std::fprintf(stderr, "%s: %s\n", label,
                       report.status().ToString().c_str());
          return 1;
        }
        scheduled += report->queries.size();
      }
      const double wall = Elapsed(rep_start);
      const double qps = static_cast<double>(scheduled) / wall;
      if (qps > best.sim_qps) {
        best.sim_qps = qps;
        best.wall_s = wall;
      }
      ++best.reps;
    }

    table.AddRow({label, std::to_string(3 * requests),
                  std::to_string(best.reps), TablePrinter::Fmt(best.wall_s, 4),
                  TablePrinter::Fmt(best.sim_qps, 0)});
    // Wall-clock throughput on shared CI runners jitters far more than any
    // simulated metric: gate at 0.75 (a 4x slowdown trips, scheduler noise
    // does not). The CI job's --tolerance 0.30 stays the default for
    // metrics without their own tolerance.
    stats.Add(std::string("sim_qps.") + label, best.sim_qps,
              obs::Direction::kHigherIsBetter, 0.75);
    stats.Add(std::string("wall_s.") + label, best.wall_s,
              obs::Direction::kInfo);
    return 0;
  };

  for (uint32_t requests : request_counts) {
    for (uint32_t slots : slot_counts) {
      char label[32];
      std::snprintf(label, sizeof(label), "r%u.s%u", requests, slots);
      if (run_point(requests, slots, /*event_path=*/false, label) != 0) {
        return 1;
      }
    }
  }
  // The same stream with the preemptive knobs' bookkeeping on: a
  // batch-formation window and interactive arrivals exercise the engine's
  // hold and priority-class paths.
  if (run_point(10000, 8, /*event_path=*/true, "event.r10000.s8") != 0) {
    return 1;
  }

  auto priced_wall = RunPricedPoint(kPricedQueries, kPricedSlots);
  if (!priced_wall.ok()) {
    std::fprintf(stderr, "priced: %s\n",
                 priced_wall.status().ToString().c_str());
    return 1;
  }
  const double priced_qps = kPricedQueries / *priced_wall;
  table.AddRow({"priced", std::to_string(kPricedQueries), "-",
                TablePrinter::Fmt(*priced_wall, 4),
                TablePrinter::Fmt(priced_qps, 0)});
  stats.Add("sim_qps.priced", priced_qps, obs::Direction::kHigherIsBetter,
            0.75);
  stats.Add("wall_s.priced", *priced_wall, obs::Direction::kInfo);

  table.Print();

  auto st = bench::Harness::EmitBenchJson(stats);
  if (!st.ok()) {
    std::fprintf(stderr, "bench json: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
