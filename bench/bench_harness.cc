#include "bench_harness.h"

#include <cstdio>

namespace dana::bench {

Harness::Harness() = default;

runtime::DanaSystem::Options Harness::dana_options() const {
  runtime::DanaSystem::Options o;
  o.fpga = runtime::DefaultFpga();
  o.functional_epoch_cap = 2;
  return o;
}

Result<runtime::WorkloadInstance*> Harness::Instance(const std::string& id,
                                                     uint32_t page_size) {
  auto it = instances_.find({id, page_size});
  if (it != instances_.end()) return it->second.get();
  const ml::Workload* w = ml::FindWorkload(id);
  if (w == nullptr) {
    return Status::NotFound("unknown workload '" + id + "'");
  }
  DANA_ASSIGN_OR_RETURN(auto instance,
                        runtime::WorkloadInstance::CreateShape(*w, page_size));
  auto* ptr = instance.get();
  instances_[{id, page_size}] = std::move(instance);
  return ptr;
}

Result<const compiler::CompiledUdf*> Harness::Compiled(const std::string& id,
                                                       uint32_t page_size) {
  auto it = compiled_.find({id, page_size});
  if (it != compiled_.end()) return it->second.get();
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                        Instance(id, page_size));
  runtime::DanaSystem dana(cost_, dana_options());
  DANA_ASSIGN_OR_RETURN(auto udf, dana.Compile(*instance));
  auto owned = std::make_unique<compiler::CompiledUdf>(std::move(udf));
  auto* ptr = owned.get();
  compiled_[{id, page_size}] = std::move(owned);
  return static_cast<const compiler::CompiledUdf*>(ptr);
}

Result<compiler::CompiledUdf> Harness::Compile(
    const ml::Workload& w,
    const compiler::HardwareGenerator::Options& hw) const {
  DANA_ASSIGN_OR_RETURN(auto instance,
                        runtime::WorkloadInstance::CreateShape(w));
  runtime::DanaSystem::Options options = dana_options();
  options.hw = hw;
  return runtime::DanaSystem(cost_, options).Compile(*instance);
}

Result<runtime::SystemResult> Harness::RunPg(const std::string& id,
                                             runtime::CacheState cache,
                                             uint32_t page_size) {
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                        Instance(id, page_size));
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

Result<runtime::SystemResult> Harness::RunDana(const std::string& id,
                                               runtime::CacheState cache,
                                               uint32_t page_size) {
  const auto key = std::make_pair(Key{id, page_size}, cache);
  auto it = dana_runs_.find(key);
  if (it != dana_runs_.end()) return it->second;
  DANA_ASSIGN_OR_RETURN(const compiler::CompiledUdf* udf,
                        Compiled(id, page_size));
  DANA_ASSIGN_OR_RETURN(auto r,
                        RunDanaCompiled(*udf, id, cache, {}, page_size));
  dana_runs_.emplace(key, r);
  return r;
}

Result<runtime::SystemResult> Harness::RunDana(
    const std::string& id, runtime::CacheState cache,
    const accel::RunOptions& run_overrides) {
  DANA_ASSIGN_OR_RETURN(const compiler::CompiledUdf* udf, Compiled(id));
  return RunDanaCompiled(*udf, id, cache, run_overrides);
}

Result<runtime::SystemResult> Harness::RunDanaCompiled(
    const compiler::CompiledUdf& udf, const std::string& id,
    runtime::CacheState cache, const accel::RunOptions& run_overrides,
    uint32_t page_size) {
  DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                        Instance(id, page_size));
  runtime::DanaSystem::Options options = dana_options();
  options.run = run_overrides;
  runtime::DanaSystem dana(cost_, options);
  return dana.TimeCompiled(udf, instance, cache);
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
