// Accelerator-simulator microbenchmark: simulated tuples per host second
// through the whole epoch loop — pool fetches, Strider page walks, cycle
// accounting — functionally (Accelerator::Train: tuples decoded and every
// update rule evaluated in fp32) and timing-only (Accelerator::Time, the
// pass the scheduler's executor prices endpoints with).
//
// The gated scoreboard is tuples_per_s.{functional,timing}.<workload> for
// one narrow public workload (rs_lr: 54 features, 24000 tuples, the most
// Strider work per tuple) and one wide S/N workload (sn_logistic: 2000
// features, the most evaluator work per tuple), each run from a warm buffer
// pool for two epochs per rep (the epochs the executor measures per
// endpoint). The timing-only pass skips decode and evaluation, so its rate
// bounds how fast the executor can measure an endpoint. Both passes run
// over the same generated table and must report the same simulated time,
// which the bench checks before it emits anything.
//
// Each point is timed with bench::BestRep (best of up to 5 reps or ~0.5 s).
// Emits BENCH_micro_accel.json; the CI bench-telemetry job compares it
// against bench/baselines/BENCH_micro_accel.json with a 0.75 per-metric
// tolerance, like the other micro_* scoreboards. The sweep is already
// CI-sized, so DANA_BENCH_FAST does not change its shape.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "bench_harness.h"
#include "common/table_printer.h"
#include "ml/algorithms.h"
#include "ml/workloads.h"
#include "obs/stats_writer.h"
#include "runtime/systems.h"

namespace {

using namespace dana;

constexpr uint32_t kEpochsPerRep = 2;

struct AccelRate {
  double functional_tuples_per_s = 0.0;
  double timing_tuples_per_s = 0.0;
  uint64_t tuples_per_rep = 0;
};

Result<AccelRate> Measure(const ml::Workload& workload) {
  DANA_ASSIGN_OR_RETURN(auto instance,
                        runtime::WorkloadInstance::Create(workload));
  const runtime::DanaSystem system(runtime::CpuCostModel{});
  DANA_ASSIGN_OR_RETURN(compiler::CompiledUdf udf, system.Compile(*instance));
  const accel::Accelerator accelerator(udf);
  accel::RunOptions run;
  run.max_epochs_override = kEpochsPerRep;
  run.initial_models = {ml::InitialModel(workload.kind, workload.params)};
  // A table that fits the scaled pool stays warm through every rep.
  if (instance->PoolSizeRatio() > 1.0) {
    return Status::FailedPrecondition(workload.id +
                                      " outsizes its buffer pool");
  }
  instance->PrepareCache(runtime::CacheState::kWarm);

  accel::RunReport functional;
  accel::RunReport timing;
  auto functional_wall = bench::BestRep([&]() -> Status {
    DANA_ASSIGN_OR_RETURN(functional, accelerator.Train(instance->table(),
                                                        instance->pool(), run));
    return Status::OK();
  });
  if (!functional_wall.ok()) return functional_wall.status();
  auto timing_wall = bench::BestRep([&]() -> Status {
    DANA_ASSIGN_OR_RETURN(timing, accelerator.Time(instance->table(),
                                                   instance->pool(), run));
    return Status::OK();
  });
  if (!timing_wall.ok()) return timing_wall.status();
  if (timing.total_time.nanos() != functional.total_time.nanos() ||
      timing.tuples_processed != functional.tuples_processed) {
    return Status::Internal("timing-only run of " + workload.id +
                            " disagrees with the functional run");
  }
  AccelRate rate;
  rate.tuples_per_rep = functional.tuples_processed;
  const double tuples = static_cast<double>(rate.tuples_per_rep);
  rate.functional_tuples_per_s = tuples / *functional_wall;
  rate.timing_tuples_per_s = tuples / *timing_wall;
  return rate;
}

}  // namespace

int main() {
  bench::Harness::PrintHeader(
      "Accelerator simulator throughput: functional vs timing-only epochs",
      "host-time scoreboard for the accelerator's epoch loop");

  obs::StatsWriter stats("micro_accel");
  stats.SetConfig("workloads", "rs_lr,sn_logistic");
  stats.SetConfig("epochs_per_rep", static_cast<double>(kEpochsPerRep));
  stats.SetConfig("cache", "warm");

  auto fail = [](const std::string& what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), st.ToString().c_str());
    return 1;
  };

  TablePrinter table({"workload", "features", "tuples / rep",
                      "functional tuples/s", "timing tuples/s", "timing x"});
  for (const char* id : {"rs_lr", "sn_logistic"}) {
    const ml::Workload* workload = ml::FindWorkload(id);
    if (workload == nullptr) {
      return fail(id, Status::NotFound("not in the registry"));
    }
    auto rate = Measure(*workload);
    if (!rate.ok()) return fail(id, rate.status());
    const double speedup =
        rate->timing_tuples_per_s / rate->functional_tuples_per_s;
    table.AddRow({id, std::to_string(workload->params.dims),
                  std::to_string(rate->tuples_per_rep),
                  TablePrinter::Fmt(rate->functional_tuples_per_s, 0),
                  TablePrinter::Fmt(rate->timing_tuples_per_s, 0),
                  TablePrinter::Fmt(speedup, 2)});
    const std::string label = id;
    stats.Add("tuples_per_s.functional." + label,
              rate->functional_tuples_per_s,
              obs::Direction::kHigherIsBetter, 0.75);
    stats.Add("tuples_per_s.timing." + label, rate->timing_tuples_per_s,
              obs::Direction::kHigherIsBetter, 0.75);
    stats.Add("timing_speedup." + label, speedup, obs::Direction::kInfo);
  }
  table.Print();

  auto st = bench::Harness::EmitBenchJson(stats);
  if (!st.ok()) return fail("bench json", st);
  return 0;
}
