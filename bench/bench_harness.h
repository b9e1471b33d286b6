#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "ml/workloads.h"
#include "obs/stats_writer.h"
#include "runtime/systems.h"

namespace dana::bench {

/// Shared machinery for the figure/table reproduction binaries.
///
/// Caches one shape WorkloadInstance (WorkloadInstance::CreateShape: the
/// table's layout and pools, no generated dataset) and one compiled
/// accelerator per workload so that a bench binary sweeping many
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
  Harness();

  /// The shape instance for a workload id (creating it on first use); it
  /// has no dataset().
  dana::Result<runtime::WorkloadInstance*> Instance(const std::string& id);

  /// The compiled accelerator for a workload id (default DAnA options).
  dana::Result<const compiler::CompiledUdf*> Compiled(const std::string& id);

  /// MADlib+PostgreSQL end-to-end runtime (timing only; no functional
  /// training — the test suite covers model equivalence).
  dana::Result<runtime::SystemResult> RunPg(const std::string& id,
                                            runtime::CacheState cache);

  /// MADlib+Greenplum with `segments` segments.
  dana::Result<runtime::SystemResult> RunGp(const std::string& id,
                                            runtime::CacheState cache,
                                            uint32_t segments = 8);

  /// DAnA+PostgreSQL timing (DanaSystem::TimeCompiled: no functional
  /// training, so `model` is empty and `loss` 0); `run_overrides` tweaks
  /// bandwidth/bypass etc. A workload with a convergence test fails with
  /// TimeCompiled's FailedPrecondition.
  dana::Result<runtime::SystemResult> RunDana(
      const std::string& id, runtime::CacheState cache,
      const accel::RunOptions& run_overrides = {});

  /// DAnA with a specific pre-compiled design (thread sweeps etc).
  dana::Result<runtime::SystemResult> RunDanaCompiled(
      const compiler::CompiledUdf& udf, const std::string& id,
      runtime::CacheState cache, const accel::RunOptions& run_overrides = {});

  const runtime::CpuCostModel& cost() const { return cost_; }
  runtime::DanaSystem::Options dana_options() const;

  /// Prints the standard bench header for a reproduced figure/table.
  static void PrintHeader(const std::string& experiment,
                          const std::string& paper_ref);

  /// Runs one end-to-end speedup figure (the Figure 8/9/10 shape): for
  /// each workload, MADlib+PostgreSQL (baseline), MADlib+Greenplum, and
  /// DAnA, in the given cache state; prints paper-vs-measured speedups
  /// and geomeans. Returns non-OK on the first failing run. With a stats
  /// writer attached (set_stats), records the measured geomeans as
  /// `<warm|cold>.gp_geomean_speedup` / `.dana_geomean_speedup` gated
  /// metrics.
  dana::Status RunSpeedupFigure(const std::vector<ml::Workload>& workloads,
                                runtime::CacheState cache);

  /// Attaches a StatsWriter (not owned; null detaches): subsequent
  /// RunSpeedupFigure calls record their headline numbers into it, so a
  /// bench binary can emit BENCH_<area>.json alongside its tables.
  void set_stats(obs::StatsWriter* stats) { stats_ = stats; }

  /// Writes `writer`'s BENCH_<area>.json (StatsWriter::Write — the dir
  /// comes from DANA_BENCH_JSON_DIR, default cwd) and prints the path.
  static dana::Status EmitBenchJson(const obs::StatsWriter& writer);

 private:
  runtime::CpuCostModel cost_;
  std::map<std::string, std::unique_ptr<runtime::WorkloadInstance>>
      instances_;
  std::map<std::string, std::unique_ptr<compiler::CompiledUdf>> compiled_;
  obs::StatsWriter* stats_ = nullptr;
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
