// Engine-layer microbenchmark: host throughput of the compiler (lowering,
// list scheduling, and whole compiles) and of the functional fp32 engine
// evaluator, the simulator's hottest loop.
//
// compiles_per_s is gated: every Table 3 workload compiled through
// runtime::DanaSystem::Compile, that is UdfCompiler::Compile (translate,
// lower, generate with its thread-count exploration and list scheduling,
// emit) over the workload's shape instance with the default options; a
// rep compiles all fourteen, reps repeat as below and the best wins.
// bench_e2e's setups compile their workloads through the same call, so
// this is the point that sees a slower scheduler.
//
// The other gated points are tuples_per_s.d{54,2000,8000}: logistic
// regression at merge_coef 64, one seeded 64-tuple batch evaluated
// repeatedly; and tuples_per_s.lrmf450: LRMF over 450 items at rank 10 and
// merge_coef 4, whose tuple program is hundreds of short reduction trees
// evaluated in 4-tuple batches (the S/E LRMF shape). A rep evaluates about
// 2^24 scalar ops; reps repeat until the point has 5 reps or ~0.5 s of wall
// time, and the best rep wins (max over reps is the standard microbenchmark
// noise filter; the trained model itself is deterministic). Programs of at
// least ScalarEvaluator::kParallelTupleOps ops evaluate a batch's tuples on
// the process's worker team, a thread per CPU (d2000, d8000, lrmf450), so
// those points read the host's core count too. Lowering and scheduling times of single logistic
// tuple programs are recorded as info.
//
// Emits BENCH_micro_engine.json; the CI bench-telemetry job compares it
// against bench/baselines/BENCH_micro_engine.json. Each gated metric carries
// a 0.75 tolerance: wall-clock throughput on shared runners jitters far
// more than simulated metrics, and a structural slowdown of the evaluator
// (4x or more) still trips the gate. The sweep is already CI-sized, so
// DANA_BENCH_FAST does not change its shape.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table_printer.h"
#include "compiler/scalar_program.h"
#include "compiler/scheduler.h"
#include "engine/evaluator.h"
#include "hdfg/translator.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "ml/workloads.h"
#include "obs/stats_writer.h"
#include "runtime/systems.h"

namespace {

using namespace dana;

constexpr uint32_t kMergeCoef = 64;
constexpr uint64_t kOpsPerRep = uint64_t{1} << 24;

/// One evaluator sweep point.
struct EvalPoint {
  std::string label;
  ml::AlgoKind kind;
  uint32_t dims;
  uint32_t merge_coef;
};

Result<hdfg::Graph> Translate(ml::AlgoKind kind, uint32_t dims,
                              uint32_t merge_coef) {
  ml::AlgoParams p;
  p.dims = dims;
  p.rank = 10;
  p.merge_coef = merge_coef;
  DANA_ASSIGN_OR_RETURN(auto algo, ml::BuildAlgo(kind, p));
  return hdfg::Translator::Translate(*algo);
}

Result<hdfg::Graph> Translate(uint32_t dims) {
  return Translate(ml::AlgoKind::kLogisticRegression, dims, kMergeCoef);
}

/// "d<dims>", the metric-name suffix of one sweep point.
std::string PointLabel(uint32_t dims) {
  char label[16];
  std::snprintf(label, sizeof(label), "d%u", dims);
  return label;
}

}  // namespace

int main() {
  bench::Harness::PrintHeader(
      "Engine layer throughput: lowering, list scheduling, compiles, fp32 "
      "evaluator",
      "host-time scoreboard for the engine layer");

  obs::StatsWriter stats("micro_engine");
  stats.SetConfig("algo", "logistic");
  stats.SetConfig("merge_coef", static_cast<double>(kMergeCoef));
  stats.SetConfig("eval_dims", "54,2000,8000");
  stats.SetConfig("eval_lrmf", "450 items, rank 10, merge_coef 4");
  stats.SetConfig("compile_dims", "54,520,2000");
  stats.SetConfig("compile_workloads", "Table 3, shape instances");
  stats.SetConfig("ops_per_rep", static_cast<double>(kOpsPerRep));

  auto fail = [](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    return 1;
  };

  TablePrinter compile_table(
      {"dims", "tuple ops", "lower (ms)", "schedule (ms)"});
  for (uint32_t dims : {54u, 520u, 2000u}) {
    auto graph = Translate(dims);
    if (!graph.ok()) return fail("translate", graph.status());
    auto prog = compiler::LowerGraph(*graph);
    if (!prog.ok()) return fail("lower", prog.status());
    auto lower_s =
        bench::BestRep([&] { return compiler::LowerGraph(*graph).status(); });
    if (!lower_s.ok()) return fail("lower", lower_s.status());
    compiler::SchedulerConfig cfg;
    cfg.num_acs = 16;
    const compiler::Scheduler sched(cfg);
    auto schedule_s =
        bench::BestRep([&] { return sched.Run(prog->tuple_ops).status(); });
    if (!schedule_s.ok()) return fail("schedule", schedule_s.status());

    const std::string d = PointLabel(dims);
    compile_table.AddRow({std::to_string(dims),
                          std::to_string(prog->tuple_ops.size()),
                          TablePrinter::Fmt(*lower_s * 1e3, 3),
                          TablePrinter::Fmt(*schedule_s * 1e3, 3)});
    stats.Add("lower_s." + d, *lower_s, obs::Direction::kInfo);
    stats.Add("schedule_s." + d, *schedule_s, obs::Direction::kInfo);
  }

  // Whole compiles of the Table 3 workloads (shape instances are built
  // outside the timed reps; nothing is cached across compiles).
  std::vector<std::unique_ptr<runtime::WorkloadInstance>> instances;
  for (const ml::Workload& w : ml::AllWorkloads()) {
    auto instance = runtime::WorkloadInstance::CreateShape(w);
    if (!instance.ok()) return fail("shape instance", instance.status());
    instances.push_back(std::move(instance).ValueOrDie());
  }
  const runtime::DanaSystem dana{runtime::CpuCostModel{}};
  auto compile_s = bench::BestRep([&]() -> Status {
    for (const auto& instance : instances) {
      DANA_RETURN_NOT_OK(dana.Compile(*instance).status());
    }
    return Status::OK();
  });
  if (!compile_s.ok()) return fail("compile", compile_s.status());
  const double compiles_per_s =
      static_cast<double>(instances.size()) / *compile_s;
  stats.Add("compiles_per_s", compiles_per_s, obs::Direction::kHigherIsBetter,
            0.75);
  stats.Add("compile_wall_s", *compile_s, obs::Direction::kInfo);

  TablePrinter eval_table({"point", "ops / tuple", "batch", "batches / rep",
                           "best wall (s)", "tuples/s"});
  const EvalPoint points[] = {
      {PointLabel(54), ml::AlgoKind::kLogisticRegression, 54, kMergeCoef},
      {PointLabel(2000), ml::AlgoKind::kLogisticRegression, 2000, kMergeCoef},
      {PointLabel(8000), ml::AlgoKind::kLogisticRegression, 8000, kMergeCoef},
      {"lrmf450", ml::AlgoKind::kLowRankMF, 450, 4},
  };
  for (const EvalPoint& point : points) {
    auto graph = Translate(point.kind, point.dims, point.merge_coef);
    if (!graph.ok()) return fail("translate", graph.status());
    auto prog = compiler::LowerGraph(*graph);
    if (!prog.ok()) return fail("lower", prog.status());

    ml::DatasetSpec spec;
    spec.kind = point.kind;
    spec.dims = point.dims;
    spec.rank = 10;
    spec.tuples = point.merge_coef;
    const ml::Dataset data = ml::GenerateDataset(spec);
    std::vector<engine::TupleData> batch(point.merge_coef);
    for (size_t t = 0; t < batch.size(); ++t) {
      const std::vector<double>& row = data.rows[t];
      batch[t].inputs = {
          std::vector<float>(row.begin(), row.begin() + point.dims)};
      if (data.has_label) {
        batch[t].outputs = {{static_cast<float>(row[point.dims])}};
      }
    }

    const uint64_t ops_per_batch =
        point.merge_coef * prog->tuple_ops.size() + prog->batch_ops.size();
    const uint64_t batches =
        std::max<uint64_t>(1, kOpsPerRep / ops_per_batch);
    engine::ScalarEvaluator evaluator(*prog);
    if (point.kind == ml::AlgoKind::kLowRankMF) {
      ml::AlgoParams p;
      p.dims = point.dims;
      p.rank = 10;
      auto st = evaluator.SetModel(0, ml::InitialModel(point.kind, p));
      if (!st.ok()) return fail("model", st);
    }
    auto wall = bench::BestRep([&]() -> Status {
      for (uint64_t b = 0; b < batches; ++b) {
        DANA_RETURN_NOT_OK(evaluator.EvalBatch(batch));
      }
      return Status::OK();
    });
    if (!wall.ok()) return fail("evaluate", wall.status());
    const double tuples_per_s =
        static_cast<double>(batches * point.merge_coef) / *wall;

    eval_table.AddRow({point.label, std::to_string(prog->tuple_ops.size()),
                       std::to_string(point.merge_coef),
                       std::to_string(batches), TablePrinter::Fmt(*wall, 4),
                       TablePrinter::Fmt(tuples_per_s, 0)});
    stats.Add("tuples_per_s." + point.label, tuples_per_s,
              obs::Direction::kHigherIsBetter, 0.75);
    stats.Add("eval_wall_s." + point.label, *wall, obs::Direction::kInfo);
  }

  compile_table.Print();
  std::printf("Table 3 compiles: %zu workloads in %.1f ms, %.0f compiles/s\n",
              instances.size(), *compile_s * 1e3, compiles_per_s);
  eval_table.Print();

  auto st = bench::Harness::EmitBenchJson(stats);
  if (!st.ok()) return fail("bench json", st);
  return 0;
}
