// train_public and train_wide: the paper's end-to-end training comparison
// (Figures 8 and 10). One rep trains every workload of the set from a warm
// and from a cold buffer pool on DAnA+PostgreSQL, MADlib+PostgreSQL, and
// MADlib+Greenplum(8), as bench_fig8/bench_fig10 do.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/stats.h"
#include "e2e.h"
#include "layers.h"
#include "ml/algorithms.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "runtime/systems.h"

namespace dana::e2e {
namespace {

using runtime::CacheState;

constexpr CacheState kCaches[] = {CacheState::kWarm, CacheState::kCold};
constexpr uint32_t kGreenplumSegments = 8;

/// The simulated outcome of one system run; reps must reproduce it bit for
/// bit.
struct OpResult {
  double total_ns = 0;
  double io_ns = 0;
  double compute_ns = 0;
  double overhead_ns = 0;
  uint32_t epochs = 0;
  double loss = 0;
  uint64_t model_digest = 0;

  bool operator==(const OpResult&) const = default;
};

/// Checks one run: it succeeded, its runtime is a positive finite time,
/// and — for a run that trained a model — the model and its loss are finite
/// and the loss beats the initial model's.
std::optional<OpResult> CheckRun(const dana::Result<runtime::SystemResult>& r,
                                 bool trained, double initial_loss) {
  if (!r.ok()) {
    std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
    return std::nullopt;
  }
  OpResult op;
  op.total_ns = r->total.nanos();
  op.io_ns = r->io.nanos();
  op.compute_ns = r->compute.nanos();
  op.overhead_ns = r->overhead.nanos();
  op.epochs = r->epochs;
  op.loss = r->loss;
  Digest model;
  for (double v : r->model) model.Add(v);
  op.model_digest = model.value();
  if (!std::isfinite(op.total_ns) || op.total_ns <= 0) return std::nullopt;
  if (trained) {
    if (r->model.empty() || !std::isfinite(r->loss)) return std::nullopt;
    for (double v : r->model) {
      if (!std::isfinite(v)) return std::nullopt;
    }
    if (!(r->loss < initial_loss)) return std::nullopt;
  }
  return op;
}

class TrainWorkload : public Workload {
 public:
  TrainWorkload(std::vector<ml::Workload> set, uint64_t seed) {
    for (ml::Workload& w : set) {
      // dataset_spec() seeds the generator from the id, so a renamed copy
      // is the same workload over a different draw of its data.
      if (seed != kDefaultSeed) {
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), "~%llx",
                      static_cast<unsigned long long>(seed));
        w.id += suffix;
      }
      Query q;
      q.workload = std::move(w);
      queries_.push_back(std::move(q));
    }
  }

  dana::Status Setup(Spans* spans) override {
    runtime::DanaSystem system(cost_, DanaOptions());
    for (Query& q : queries_) {
      {
        Spans::Scope s(spans, "runtime.create_instance", 0);
        DANA_ASSIGN_OR_RETURN(q.instance,
                              runtime::WorkloadInstance::Create(q.workload));
      }
      if (spans != nullptr) {
        DANA_RETURN_NOT_OK(ReplayGenerate(q.workload, spans, 0));
        DANA_ASSIGN_OR_RETURN(q.udf, ReplayCompile(*q.instance, spans, 0));
      } else {
        DANA_ASSIGN_OR_RETURN(q.udf, system.Compile(*q.instance));
      }
      const ml::Workload& w = q.workload;
      const std::vector<float> initial = ml::InitialModel(w.kind, w.params);
      q.initial_loss = ml::ReferenceTrainer(w.kind, w.params)
                           .Loss(q.instance->dataset(),
                                 std::vector<double>(initial.begin(),
                                                     initial.end()));
    }
    return Status::OK();
  }

  dana::Result<RepOutcome> RunRep(Spans* spans) override {
    const uint64_t rep = ++reps_;
    RepOutcome out;
    std::vector<std::optional<OpResult>> ops;
    std::vector<double> speedup[2];
    std::vector<double> paper_err;
    const Clock::time_point start = Clock::now();
    for (Query& q : queries_) {
      runtime::WorkloadInstance* instance = q.instance.get();
      for (int c = 0; c < 2; ++c) {
        const CacheState cache = kCaches[c];
        const int64_t op = static_cast<int64_t>(ops.size() / 3);
        auto timed = [&](const char* layer, auto&& run) {
          Spans::Scope s(spans, layer, rep, op);
          return run();
        };
        const auto accel = timed("runtime.dana_run", [&] {
          return runtime::DanaSystem(cost_, DanaOptions())
              .RunCompiled(q.udf, instance, cache);
        });
        // RunCompiled reset the pool's stats before the run.
        CountPool(spans, instance->PoolStatsRollup());
        const auto pg = timed("runtime.madlib_run", [&] {
          return runtime::MadlibPostgres(cost_).Run(instance, cache,
                                                    /*train_model=*/false);
        });
        const auto gp = timed("runtime.madlib_run", [&] {
          return runtime::MadlibGreenplum(cost_, kGreenplumSegments)
              .Run(instance, cache, /*train_model=*/false);
        });
        ops.push_back(CheckRun(accel, /*trained=*/true, q.initial_loss));
        ops.push_back(CheckRun(pg, false, 0));
        ops.push_back(CheckRun(gp, false, 0));
        if (accel.ok() && pg.ok()) {
          const ml::PaperNumbers& paper = q.workload.paper;
          const double ours = pg->total / accel->total;
          const double published = cache == CacheState::kWarm
                                       ? paper.dana_speedup_warm
                                       : paper.dana_speedup_cold;
          speedup[c].push_back(ours);
          paper_err.push_back(std::max(ours / published, published / ours));
        }
        out.tuples += instance->table().num_tuples() *
                      std::min<uint64_t>(q.workload.dana_epochs, 2);
      }
    }
    out.host_s = SecondsSince(start);

    if (first_.empty()) first_ = ops;
    Digest digest;
    for (size_t i = 0; i < ops.size(); ++i) {
      ++out.ops;
      if (!ops[i].has_value() || ops[i] != first_[i]) {
        ++out.failed;
        continue;
      }
      const OpResult& r = *ops[i];
      for (double v : {r.total_ns, r.io_ns, r.compute_ns, r.overhead_ns,
                       r.loss}) {
        digest.Add(v);
      }
      digest.Add(static_cast<uint64_t>(r.epochs));
      digest.Add(r.model_digest);
    }
    out.digest = digest.value();
    using obs::Direction;
    out.sim = {
        {"sim_speedup_warm_geomean", GeoMean(speedup[0]),
         Direction::kHigherIsBetter, "x"},
        {"sim_speedup_cold_geomean", GeoMean(speedup[1]),
         Direction::kHigherIsBetter, "x"},
        {"sim_paper_err", GeoMean(paper_err), Direction::kLowerIsBetter, "x"},
    };
    return out;
  }

  dana::Status Replay(Spans* spans,
                      std::map<std::string, double>* sim) override {
    int64_t op = 0;
    for (Query& q : queries_) {
      for (CacheState cache : kCaches) {
        DANA_RETURN_NOT_OK(ReplayEpoch(q.udf, q.instance.get(), cache, spans,
                                       0, op++, sim));
      }
    }
    return Status::OK();
  }

 private:
  struct Query {
    ml::Workload workload;
    std::unique_ptr<runtime::WorkloadInstance> instance;
    compiler::CompiledUdf udf;
    double initial_loss = 0;
  };

  /// The options bench_fig8/bench_fig10 train with: the Table 4 FPGA, two
  /// functional epochs extrapolated to the workload's epoch budget.
  static runtime::DanaSystem::Options DanaOptions() {
    runtime::DanaSystem::Options o;
    o.fpga = runtime::DefaultFpga();
    o.functional_epoch_cap = 2;
    return o;
  }

  runtime::CpuCostModel cost_;
  std::vector<Query> queries_;
  std::vector<std::optional<OpResult>> first_;
  uint64_t reps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainPublic(uint64_t seed) {
  return std::make_unique<TrainWorkload>(ml::PublicWorkloads(), seed);
}

std::unique_ptr<Workload> MakeTrainWide(uint64_t seed) {
  return std::make_unique<TrainWorkload>(ml::SyntheticExtensiveWorkloads(),
                                         seed);
}

}  // namespace dana::e2e
