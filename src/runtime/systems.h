#pragma once

#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "compiler/compiler.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "runtime/cost_model.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace dana::runtime {

/// Cache state of a run (paper §7 default setup). kOsCached is the middle
/// endpoint of the tiered pricing model: the buffer pool is cold but the
/// table's pages sit in the modeled kernel page cache, so every pool miss
/// is served at OS-cache speed instead of disk speed.
enum class CacheState : uint8_t { kWarm, kCold, kOsCached };

/// Outcome of running one workload on one system.
struct SystemResult {
  std::string system;
  dana::SimTime total;       ///< end-to-end runtime at paper scale
  dana::SimTime io;          ///< disk time (scaled)
  dana::SimTime compute;     ///< compute/FPGA time (scaled)
  dana::SimTime overhead;    ///< query/startup overheads (not scaled)
  uint32_t epochs = 0;
  /// Cross-query batching attribution (DAnA only): time the whole batch
  /// amortizes over one page-streaming sweep (overheads included, scaled)
  /// vs the incremental engine time each co-trained query adds.
  dana::SimTime shared_time;
  dana::SimTime per_query_time;
  uint32_t batch_queries = 1;  ///< queries co-trained in this pass
  /// Epoch-resolved attribution (DAnA only), for epoch-sliced resumable
  /// execution: the first epoch carries the run's cold-I/O transient, every
  /// later epoch repeats the steady state. All at paper scale, without the
  /// fixed overheads below; a run of e >= 1 epochs costs
  ///   query_overhead + epoch_overhead * e
  ///     + first_epoch.wall + steady_epoch.wall * (e - 1)
  /// which is the same decomposition `total` extrapolates from.
  struct EpochCost {
    dana::SimTime wall;       ///< pipelined epoch wall time
    dana::SimTime shared;     ///< one-pass streaming side (batch-amortized)
    dana::SimTime per_query;  ///< incremental engine time per co-trained model
  };
  EpochCost first_epoch;
  EpochCost steady_epoch;
  /// One-time query startup (PostgreSQL + DAnA DMA/config setup), unscaled.
  dana::SimTime query_overhead;
  /// Per-epoch host orchestration (stream restart, model read-back),
  /// unscaled.
  dana::SimTime epoch_overhead;
  /// Trained model (flattened first model variable) and its loss on the
  /// (scaled) training set; checks the systems do equivalent work.
  std::vector<double> model;
  double loss = 0.0;
};

/// Shared experiment context: one workload's generated data, its table,
/// and one buffer pool sized so that table-vs-pool proportions match the
/// paper's 8 GB pool against Table 3 dataset sizes. The table is the
/// modeled disk and the pool its residency: every run prepares the pool to
/// a cache state first (PrepareCache), so one pool serves every run, and
/// the accelerator reads the table's own pages through it.
///
/// A *shape* instance (CreateShape) holds no dataset and a shape table
/// (ml::BuildShapeTable): every time the simulators charge depends on the
/// page layout only, so it prices runs exactly like the full instance —
/// through DanaSystem::TimeCompiled, TablaSystem, and the MADlib systems
/// with `train_model=false` — at a fraction of the setup cost.
class WorkloadInstance {
 public:
  /// Builds the dataset and table for `workload` with the given page size.
  static dana::Result<std::unique_ptr<WorkloadInstance>> Create(
      const ml::Workload& workload, uint32_t page_size = 32 * 1024);
  /// Builds the shape table for `workload` from its dataset_spec(),
  /// generating no dataset.
  static dana::Result<std::unique_ptr<WorkloadInstance>> CreateShape(
      const ml::Workload& workload, uint32_t page_size = 32 * 1024);

  const ml::Workload& workload() const { return workload_; }
  /// The generated dataset; a shape instance has none (a DANA_CHECK).
  const ml::Dataset& dataset() const;
  const storage::Table& table() const { return *table_; }
  /// The instance's buffer pool.
  storage::BufferPool* pool() { return &pool_; }
  /// Hit/miss/io statistics of the pool since the last PrepareCache.
  storage::BufferPoolStats PoolStatsRollup() const { return pool_.stats(); }

  /// Resets the pool to the requested cache state, clearing stats.
  /// Partially-decayed states are charged analytically (the executor
  /// interpolates between the measured endpoints); a test that wants a
  /// physically partial pool uses BufferPool::Prewarm's fraction directly.
  void PrepareCache(CacheState state);

  /// This table's page count over the pool's frame count. <= 1 means
  /// a run leaves the table fully resident; a larger table keeps only its
  /// trailing pool-sized window. Because the pool is sized to
  /// 8 GB / scale, the ratio reduces to paper-scale table bytes over the
  /// paper's 8 GB shared_buffers — a scale-free quantity, comparable
  /// across workloads generated at different scales.
  double PoolSizeRatio() const;

  /// Scale-normalized footprint of this table in a *shared* slot pool of
  /// `shared_frames` frames: the logical page count whose sweep occupies
  /// the same proportion of that pool as the paper-scale table occupies of
  /// the paper's 8 GB pool (PoolSizeRatio() * shared_frames, at least 1).
  /// This is the page count an executor's physical residency pool scans
  /// per epoch, so tables generated at different scales share one pool in
  /// consistent units.
  uint64_t NormalizedPages(uint64_t shared_frames) const;

  /// Virtual size multiplier (paper tuples / generated tuples).
  double scale() const { return workload_.scale; }

 private:
  /// Sizes the pool for `workload`'s scale and `page_size`; the factories
  /// build the table.
  WorkloadInstance(ml::Workload workload, uint32_t page_size);

  ml::Workload workload_;
  ml::Dataset dataset_;
  bool has_dataset_ = false;
  std::unique_ptr<storage::Table> table_;
  storage::BufferPool pool_;
};

/// MADlib on single-threaded PostgreSQL: functionally trains through the
/// double-precision reference implementation while charging the CPU cost
/// model; I/O goes through the shared buffer pool.
class MadlibPostgres {
 public:
  explicit MadlibPostgres(CpuCostModel cost) : cost_(cost) {}
  /// `train_model=false` skips the functional reference training (the
  /// benchmark harness only needs the timing model).
  dana::Result<SystemResult> Run(WorkloadInstance* instance, CacheState cache,
                                 bool train_model = true) const;

 private:
  CpuCostModel cost_;
};

/// MADlib on Greenplum with N segments (paper default 8).
class MadlibGreenplum {
 public:
  MadlibGreenplum(CpuCostModel cost, uint32_t segments)
      : cost_(cost), segments_(segments) {}
  dana::Result<SystemResult> Run(WorkloadInstance* instance, CacheState cache,
                                 bool train_model = true) const;

 private:
  CpuCostModel cost_;
  uint32_t segments_;
};

/// DAnA+PostgreSQL: compiles the workload's UDF and runs the accelerator
/// simulator end to end.
class DanaSystem {
 public:
  struct Options {
    compiler::FpgaSpec fpga;
    compiler::HardwareGenerator::Options hw;
    accel::RunOptions run;
    /// When nonzero and the workload assumes more epochs than this,
    /// simulate only this many epochs (RunCompiled and TimeCompiled alike)
    /// and extrapolate the (count-linear) timing to the full epoch budget.
    /// The benchmark harness uses 2 (the first epoch captures cold-cache
    /// I/O, the second the steady state).
    uint32_t functional_epoch_cap = 0;
  };

  DanaSystem(CpuCostModel cost, Options options)
      : cost_(cost), options_(std::move(options)) {}
  /// Defaults to the Table 4 FPGA (DefaultFpga()).
  explicit DanaSystem(CpuCostModel cost);

  /// Compiles the UDF for this workload (cached per instance by callers).
  dana::Result<compiler::CompiledUdf> Compile(
      const WorkloadInstance& instance) const;

  /// Full run: compile + train.
  dana::Result<SystemResult> Run(WorkloadInstance* instance,
                                 CacheState cache) const;

  /// Train with a pre-compiled UDF (lets sweeps reuse compilation).
  /// `batch_queries > 1` runs a cross-query batched pass: one page-streaming
  /// sweep through the instance's buffer pool feeds that many identical
  /// co-trained models, and the result's shared/per-query fields attribute
  /// the time.
  dana::Result<SystemResult> RunCompiled(const compiler::CompiledUdf& udf,
                                         WorkloadInstance* instance,
                                         CacheState cache,
                                         uint32_t batch_queries = 1) const;

  /// RunCompiled's timing alone, through Accelerator::Time: every time,
  /// the epoch count and the epoch-resolved attribution equal
  /// RunCompiled's bit for bit; `model` stays empty and `loss` 0. Works on
  /// a shape instance. FailedPrecondition for a program with a convergence
  /// test (see Accelerator::Time).
  dana::Result<SystemResult> TimeCompiled(const compiler::CompiledUdf& udf,
                                          WorkloadInstance* instance,
                                          CacheState cache,
                                          uint32_t batch_queries = 1) const;

  const Options& options() const { return options_; }
  Options* mutable_options() { return &options_; }

 private:
  /// The pass behind RunCompiled (`model` non-null: trains functionally
  /// and stores the first model variable there) and TimeCompiled (null).
  dana::Result<SystemResult> Simulate(const compiler::CompiledUdf& udf,
                                      WorkloadInstance* instance,
                                      CacheState cache, uint32_t batch_queries,
                                      std::vector<float>* model) const;

  CpuCostModel cost_;
  Options options_;
};

/// Out-of-RDBMS library (Liblinear / DimmWitted, Fig 15): pays export +
/// transform phases, then computes at `compute_speedup_vs_madlib` times
/// the MADlib compute rate using up to `threads` cores.
class ExternalLibrary {
 public:
  ExternalLibrary(CpuCostModel cost, std::string name,
                  double compute_speedup_vs_madlib)
      : cost_(cost),
        name_(std::move(name)),
        compute_speedup_(compute_speedup_vs_madlib) {}

  struct Phases {
    dana::SimTime export_time;
    dana::SimTime transform_time;
    dana::SimTime compute_time;
    dana::SimTime Total() const {
      return export_time + transform_time + compute_time;
    }
  };

  dana::Result<Phases> Run(WorkloadInstance* instance) const;

 private:
  CpuCostModel cost_;
  std::string name_;
  double compute_speedup_;
};

/// TABLA (Fig 16): a single-threaded accelerator without Striders — the
/// CPU extracts tuples and the access/execute stages do not interleave.
/// Returns compute-only time per epoch (at paper scale), matching the
/// figure's compute-time comparison, from a timing-only run
/// (Accelerator::Time), so it also prices a shape instance.
class TablaSystem {
 public:
  TablaSystem(CpuCostModel cost, compiler::FpgaSpec fpga)
      : cost_(cost), fpga_(fpga) {}

  dana::Result<dana::SimTime> ComputeTimePerEpoch(
      WorkloadInstance* instance) const;

 private:
  CpuCostModel cost_;
  compiler::FpgaSpec fpga_;
};

/// The FPGA spec used throughout the evaluation (Table 4) with the host
/// link calibrated to the paper's observed streaming rates.
compiler::FpgaSpec DefaultFpga();

}  // namespace dana::runtime
