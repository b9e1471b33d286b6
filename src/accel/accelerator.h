#pragma once

#include <cstdint>
#include <vector>

#include "accel/access_engine.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "compiler/compiler.h"
#include "engine/evaluator.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace dana::accel {

/// Per-run knobs of the accelerator simulator; each maps to one of the
/// paper's sensitivity experiments.
struct RunOptions {
  /// Figure 11 ablation: bypass Striders — the CPU extracts/transforms
  /// tuples and DMAs them one at a time to the execution engines.
  bool strider_bypass = false;
  /// Figure 14: scale the AXI/host bandwidth (0.25x .. 4x).
  double bandwidth_scale = 1.0;
  /// Overrides the algo's epoch budget when nonzero.
  uint32_t max_epochs_override = 0;
  /// CPU-side per-tuple extraction + transform cost in bypass mode.
  dana::SimTime cpu_extract_per_tuple = dana::SimTime::Micros(0.35);
  /// Initial model values (flattened per model var); zeros when empty.
  std::vector<std::vector<float>> initial_models;
  /// Co-trained queries sharing this pass (cross-query batching): one
  /// Strider page-streaming sweep feeds `batch_queries` identical models'
  /// execution engines, so the access side (I/O, AXI, page walking) is paid
  /// once while engine compute scales with the batch. 1 = the paper's
  /// single-query pass.
  uint32_t batch_queries = 1;
};

/// Timing breakdown of one epoch (all converted to simulated time at the
/// design's clock).
struct EpochBreakdown {
  dana::SimTime io;        ///< buffer-pool miss service time
  dana::SimTime axi;       ///< page DMA over the host link
  dana::SimTime strider;   ///< page walking (parallel across buffers)
  dana::SimTime engine;    ///< update-rule compute + merge + model update
                           ///< (whole batch: scales with batch_queries)
  dana::SimTime wall;      ///< pipelined epoch wall time
  /// Cross-query attribution of the epoch: `shared` is the one-pass
  /// streaming cost every co-batched query amortizes (the slower of the
  /// I/O and the AXI/Strider access side); `per_query` is the incremental
  /// engine-merge time each additional co-trained model adds
  /// (engine / batch_queries). Attribution, not a partition of `wall` —
  /// pipelining overlaps the two.
  dana::SimTime shared;
  dana::SimTime per_query;
};

/// Result of a training run.
struct RunReport {
  uint32_t epochs_run = 0;
  bool converged = false;
  uint64_t tuples_processed = 0;
  dana::SimTime total_time;        ///< end-to-end accelerator wall time
  dana::SimTime io_time;           ///< total buffer-pool miss time
  dana::SimTime fpga_time;         ///< total on-FPGA time
  dana::SimTime shared_time;       ///< Σ epoch shared (one-pass streaming)
  dana::SimTime per_query_time;    ///< Σ epoch per_query (engine per model)
  uint64_t fpga_cycles = 0;
  std::vector<EpochBreakdown> epochs;
  /// Trained model values, one vector per model variable (empty after a
  /// timing-only run).
  std::vector<std::vector<float>> final_models;
};

/// The DAnA accelerator: functional + cycle-level simulation of the
/// generated design training on a heap table through the buffer pool.
///
/// Every page is fetched through the pool and walked by the real Strider
/// interpreter. In `Train`, every update rule also executes in fp32 through
/// the lowered scalar program — the returned model is genuinely trained.
/// Timing follows the paper's pipeline: with >=2 page buffers the access
/// engine interleaves with the execution engine, so an epoch runs at the
/// rate of its slowest stage. The cycle counts depend on the page layout
/// and batch counts only, never on a tuple's values, so `Time` runs the
/// same epoch loop without decoding or evaluating anything and reports the
/// same times — for any program whose run length the values cannot change.
///
/// With `RunOptions::batch_queries = K > 1` the simulator models a
/// cross-query batched pass: K queries of the same algorithm co-train off
/// one page-streaming sweep. The access side (I/O, AXI, Striders) is
/// charged once; engine compute scales by K. All K models start identical
/// and see the same tuple order, so their trajectories coincide — the one
/// functionally-trained model in `final_models` is every query's result.
class Accelerator {
 public:
  explicit Accelerator(const compiler::CompiledUdf& udf);

  /// Trains on `table`, fetching pages through `pool`. The pool's stats
  /// are used (and reset) to attribute I/O time.
  dana::Result<RunReport> Train(const storage::Table& table,
                                storage::BufferPool* pool,
                                const RunOptions& options) const;

  /// Timing-only run: Train's page fetches, Strider walks, tuple-size
  /// checks and cycle accounting, bit for bit, with no tuple decoded, no
  /// update rule evaluated and no model read back (`final_models` stays
  /// empty; `initial_models` is ignored). No payload value reaches the
  /// report, so a shape table (ml::BuildShapeTable) times like the real
  /// one. FailedPrecondition for a program with a convergence test, whose
  /// epoch count depends on the trained values.
  dana::Result<RunReport> Time(const storage::Table& table,
                               storage::BufferPool* pool,
                               const RunOptions& options) const;

  const compiler::CompiledUdf& udf() const { return udf_; }

 private:
  /// The epoch loop behind Train (`functional`) and Time.
  dana::Result<RunReport> Run(const storage::Table& table,
                              storage::BufferPool* pool,
                              const RunOptions& options,
                              bool functional) const;
  /// Corruption unless a payload of `payload_bytes` holds one tuple.
  dana::Status CheckTupleSize(uint64_t payload_bytes) const;
  /// Splits a payload into per-variable fp32 element vectors.
  dana::Status DecodeTuple(const std::vector<uint8_t>& payload,
                           engine::TupleData* out) const;

  const compiler::CompiledUdf& udf_;
  AccessEngineConfig access_config_;
};

}  // namespace dana::accel
