#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "ml/workloads.h"
#include "obs/stats_writer.h"
#include "runtime/systems.h"

namespace dana::bench {

/// Shared machinery for the paper scoreboard (bench_paper).
///
/// Caches one shape WorkloadInstance (WorkloadInstance::CreateShape: the
/// table's layout and pools, no generated dataset) and one compiled
/// accelerator per workload and page size, so that a sweep over many
/// configurations builds each table and compiles each UDF once. Every
/// run here is timing only: the simulated times depend on the page layout
/// alone, so they equal a full instance's bit for bit.
///
/// Timing extrapolation: workloads assume `assumed_epochs` passes; the
/// harness simulates up to two epochs (the first epoch captures cold-cache
/// I/O, the second the steady state) and extrapolates the wall time
/// linearly — exact because every per-epoch cost in the simulator is
/// count-linear.
class Harness {
 public:
  /// The paper's DAnA page size (§7), used unless a run names another.
  static constexpr uint32_t kPageSize = 32 * 1024;

  Harness();

  /// The shape instance for a workload id at `page_size` (creating it on
  /// first use); it has no dataset().
  dana::Result<runtime::WorkloadInstance*> Instance(
      const std::string& id, uint32_t page_size = kPageSize);

  /// The compiled accelerator for a workload id at `page_size` (default
  /// DAnA options).
  dana::Result<const compiler::CompiledUdf*> Compiled(
      const std::string& id, uint32_t page_size = kPageSize);

  /// Compiles `w` — a registry workload or a variant of one, such as a
  /// different merge coefficient — with hardware-generator options `hw`,
  /// over a fresh shape instance of `w`. Not cached.
  dana::Result<compiler::CompiledUdf> Compile(
      const ml::Workload& w,
      const compiler::HardwareGenerator::Options& hw) const;

  /// MADlib+PostgreSQL end-to-end runtime (timing only; no functional
  /// training — the test suite covers model equivalence).
  dana::Result<runtime::SystemResult> RunPg(const std::string& id,
                                            runtime::CacheState cache,
                                            uint32_t page_size = kPageSize);

  /// MADlib+Greenplum with `segments` segments.
  dana::Result<runtime::SystemResult> RunGp(const std::string& id,
                                            runtime::CacheState cache,
                                            uint32_t segments = 8);

  /// DAnA+PostgreSQL timing (DanaSystem::TimeCompiled: no functional
  /// training, so `model` is empty and `loss` 0) of the default design at
  /// `page_size`. A run prepares its cache state first, so its result
  /// depends on its arguments alone and is cached by them: most figures
  /// repeat the warm run. A workload with a convergence test fails with
  /// TimeCompiled's FailedPrecondition.
  dana::Result<runtime::SystemResult> RunDana(const std::string& id,
                                              runtime::CacheState cache,
                                              uint32_t page_size = kPageSize);
  /// The same with `run_overrides` (bandwidth, Strider bypass etc.); not
  /// cached.
  dana::Result<runtime::SystemResult> RunDana(
      const std::string& id, runtime::CacheState cache,
      const accel::RunOptions& run_overrides);

  /// DAnA with a specific pre-compiled design (thread sweeps etc).
  dana::Result<runtime::SystemResult> RunDanaCompiled(
      const compiler::CompiledUdf& udf, const std::string& id,
      runtime::CacheState cache, const accel::RunOptions& run_overrides = {},
      uint32_t page_size = kPageSize);

  const runtime::CpuCostModel& cost() const { return cost_; }
  /// The Table 4 FPGA, two simulated epochs extrapolated to the budget.
  runtime::DanaSystem::Options dana_options() const;

  /// Prints the standard bench header for a reproduced figure/table.
  static void PrintHeader(const std::string& experiment,
                          const std::string& paper_ref);

  /// Writes `writer`'s BENCH_<area>.json (StatsWriter::Write — the dir
  /// comes from DANA_BENCH_JSON_DIR, default cwd) and prints the path.
  static dana::Status EmitBenchJson(const obs::StatsWriter& writer);

 private:
  using Key = std::pair<std::string, uint32_t>;  // workload id, page size

  runtime::CpuCostModel cost_;
  std::map<Key, std::unique_ptr<runtime::WorkloadInstance>> instances_;
  std::map<Key, std::unique_ptr<compiler::CompiledUdf>> compiled_;
  std::map<std::pair<Key, runtime::CacheState>, runtime::SystemResult>
      dana_runs_;
};

/// Best-of-reps wall time, in seconds, of `body` (one rep per call, a
/// callable returning dana::Status): reps repeat until there are 5 or about
/// 0.5 s of wall time has passed, and the fastest rep wins (the min over
/// reps is the standard microbenchmark noise filter). The first failing
/// rep's status is returned instead. The micro_* host-time scoreboards
/// time their points with this.
template <typename Body>
dana::Result<double> BestRep(Body body) {
  using Clock = std::chrono::steady_clock;
  auto elapsed = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };
  double best = 0.0;
  int reps = 0;
  const auto start = Clock::now();
  while (reps < 5 && elapsed(start) < 0.5) {
    const auto rep_start = Clock::now();
    DANA_RETURN_NOT_OK(body());
    const double wall = elapsed(rep_start);
    if (reps == 0 || wall < best) best = wall;
    ++reps;
  }
  return best;
}

}  // namespace dana::bench
