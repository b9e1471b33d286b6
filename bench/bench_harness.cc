#include "bench_harness.h"

#include <cstdio>

#include "common/stats.h"
#include "common/table_printer.h"

namespace dana::bench {

Harness::Harness() = default;

runtime::DanaSystem::Options Harness::dana_options() const {
  runtime::DanaSystem::Options o;
  o.fpga = runtime::DefaultFpga();
  o.functional_epoch_cap = 2;
  return o;
}

Result<runtime::WorkloadInstance*> Harness::Instance(const std::string& id) {
  auto it = instances_.find(id);
  if (it != instances_.end()) return it->second.get();
  const ml::Workload* w = ml::FindWorkload(id);
  if (w == nullptr) {
    return Status::NotFound("unknown workload '" + id + "'");
  }
  DANA_ASSIGN_OR_RETURN(auto instance,
                        runtime::WorkloadInstance::CreateShape(*w));
  auto* ptr = instance.get();
  instances_[id] = std::move(instance);
  return ptr;
}

Result<const compiler::CompiledUdf*> Harness::Compiled(const std::string& id) {
  auto it = compiled_.find(id);
  if (it != compiled_.end()) return it->second.get();
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance, Instance(id));
  runtime::DanaSystem dana(cost_, dana_options());
  DANA_ASSIGN_OR_RETURN(auto udf, dana.Compile(*instance));
  auto owned = std::make_unique<compiler::CompiledUdf>(std::move(udf));
  auto* ptr = owned.get();
  compiled_[id] = std::move(owned);
  return static_cast<const compiler::CompiledUdf*>(ptr);
}

Result<runtime::SystemResult> Harness::RunPg(const std::string& id,
                                             runtime::CacheState cache) {
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance, Instance(id));
  return runtime::MadlibPostgres(cost_).Run(instance, cache,
                                            /*train_model=*/false);
}

Result<runtime::SystemResult> Harness::RunGp(const std::string& id,
                                             runtime::CacheState cache,
                                             uint32_t segments) {
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance, Instance(id));
  return runtime::MadlibGreenplum(cost_, segments)
      .Run(instance, cache, /*train_model=*/false);
}

Result<runtime::SystemResult> Harness::RunDana(
    const std::string& id, runtime::CacheState cache,
    const accel::RunOptions& run_overrides) {
  DANA_ASSIGN_OR_RETURN(const compiler::CompiledUdf* udf, Compiled(id));
  return RunDanaCompiled(*udf, id, cache, run_overrides);
}

Result<runtime::SystemResult> Harness::RunDanaCompiled(
    const compiler::CompiledUdf& udf, const std::string& id,
    runtime::CacheState cache, const accel::RunOptions& run_overrides) {
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance, Instance(id));
  runtime::DanaSystem::Options options = dana_options();
  options.run = run_overrides;
  runtime::DanaSystem dana(cost_, options);
  return dana.TimeCompiled(udf, instance, cache);
}

Status Harness::RunSpeedupFigure(const std::vector<ml::Workload>& workloads,
                                 runtime::CacheState cache) {
  const bool warm = cache == runtime::CacheState::kWarm;
  std::printf("--- %s cache ---\n", warm ? "warm" : "cold");
  TablePrinter table({"Workload", "GP paper", "GP ours", "DAnA paper",
                      "DAnA ours", "DAnA runtime"});
  std::vector<double> gp_ours, dana_ours, gp_paper, dana_paper;
  for (const auto& w : workloads) {
    DANA_ASSIGN_OR_RETURN(auto pg, RunPg(w.id, cache));
    DANA_ASSIGN_OR_RETURN(auto gp, RunGp(w.id, cache));
    DANA_ASSIGN_OR_RETURN(auto dana, RunDana(w.id, cache));
    const double gp_speedup = pg.total / gp.total;
    const double dana_speedup = pg.total / dana.total;
    gp_ours.push_back(gp_speedup);
    dana_ours.push_back(dana_speedup);
    gp_paper.push_back(warm ? w.paper.gp_speedup_warm
                            : w.paper.gp_speedup_cold);
    dana_paper.push_back(warm ? w.paper.dana_speedup_warm
                              : w.paper.dana_speedup_cold);
    table.AddRow({w.display_name, TablePrinter::Speedup(gp_paper.back()),
                  TablePrinter::Speedup(gp_speedup),
                  TablePrinter::Speedup(dana_paper.back()),
                  TablePrinter::Speedup(dana_speedup),
                  dana.total.ToString()});
  }
  table.AddSeparator();
  table.AddRow({"Geomean", TablePrinter::Speedup(GeoMean(gp_paper)),
                TablePrinter::Speedup(GeoMean(gp_ours)),
                TablePrinter::Speedup(GeoMean(dana_paper)),
                TablePrinter::Speedup(GeoMean(dana_ours)), ""});
  table.Print();
  if (stats_ != nullptr) {
    const std::string prefix = warm ? "warm." : "cold.";
    stats_->Add(prefix + "gp_geomean_speedup", GeoMean(gp_ours),
                obs::Direction::kHigherIsBetter);
    stats_->Add(prefix + "dana_geomean_speedup", GeoMean(dana_ours),
                obs::Direction::kHigherIsBetter);
    stats_->Add(prefix + "workloads",
                static_cast<double>(workloads.size()),
                obs::Direction::kInfo);
  }
  return Status::OK();
}

Status Harness::EmitBenchJson(const obs::StatsWriter& writer) {
  DANA_ASSIGN_OR_RETURN(std::string path, writer.Write());
  std::printf("\nbench telemetry written to %s (%zu metrics)\n",
              path.c_str(), writer.metric_count());
  return Status::OK();
}

void Harness::PrintHeader(const std::string& experiment,
                          const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf(
      "(speedups are simulated end-to-end runtimes at paper scale; 'paper' "
      "columns are the published values)\n\n");
}

}  // namespace dana::bench
