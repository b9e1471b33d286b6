#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "compiler/scalar_program.h"

namespace dana::engine {

/// One training tuple as the execution engine sees it: flattened fp32
/// element vectors, one per input/output variable of the ScalarProgram.
struct TupleData {
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> outputs;
};

/// Functional model of the execution engine: executes the lowered scalar
/// program in IEEE fp32, the arithmetic the synthesized AUs perform.
///
/// This is the semantics half of the engine simulator (the timing half is
/// the static Schedule); tests validate it against hdfg::Interpreter's
/// float64 reference, and the accelerator uses it to actually train models.
///
/// The constructor compiles the program once. Every ValueRef becomes a slot
/// in one contiguous fp32 register arena (model, inputs, outputs, the
/// per-tuple op results, interned constants, merge slots, then the
/// per-batch and per-epoch op results). Each region's ops are first put in
/// dependency-level order (an op's level is one more than its deepest
/// operand's in the same region), stably by opcode within a level, and the
/// region's arena slots are numbered in that order. Alike ops of one level
/// then sit side by side, so the 450 ten-leaf reduction trees of an LRMF
/// row run as one strip per tree level instead of one per tree. The ops are
/// then grouped into strips: runs of one ALU op with consecutive
/// destinations and constant operand strides, none reading a slot the strip
/// itself writes, stacked into rows when consecutive runs have the same
/// shape and constant row strides. A strip runs as one loop per row, rows
/// in order. Every op is still its own fp32 operation after its operands
/// (no reassociation, no fusion), so results are bit-identical to
/// evaluating op by op in program order.
///
/// A batch of a large tuple program (kParallelTupleOps or more ops) runs its
/// tuples on the process's worker team (dana::TeamLease), borrowed for the
/// batch: W workers, at most one per tuple of a batch (merge_coef); a batch
/// whose lease has width 1 runs on its caller alone. Worker w takes
/// the tuples t with (B - 1 - t) mod W = w, in its own copy of the arena up
/// to the merge slots, into which the model is copied at the start of every
/// batch; the calling thread is worker 0 and so takes the last tuple, in
/// the main arena, where per-batch ops still see it. Each tuple's merge
/// sources are staged in a ring of 2W rows, and every worker folds the rows
/// in tuple order (src_0, then combine(acc, src_t) for t = 1, 2, ...) into
/// its own range of merge slots; a row is reused once every worker has
/// folded it. The float combine order is the sequential one, so the model
/// bits do not depend on the thread count.
class ScalarEvaluator {
 public:
  explicit ScalarEvaluator(const compiler::ScalarProgram& prog);
  ~ScalarEvaluator();

  /// Tuple programs at least this long run a batch's tuples in parallel.
  /// Measured evaluator-only on a 4-core x86 VM (min of 5 runs, 4 CPUs
  /// against 1): threading raised the ns/op of `blog` (840 ops), `patient`
  /// (1152) and `wlan` (1561) by 1.3x, whose tuples end before the workers
  /// are all busy, and halved that of `sn_logistic` (6001).
  static constexpr size_t kParallelTupleOps = 4096;

  /// Overrides a model variable's current value (initialization).
  dana::Status SetModel(uint32_t model_var, std::span<const float> values);

  /// Current value of a model variable (flattened, row-major).
  const std::vector<float>& Model(uint32_t model_var) const {
    return model_[model_var];
  }

  /// Runs one batch: per-tuple ops for each tuple, merge combination,
  /// per-batch ops, and model write-back. Plain-SGD programs (merge_coef
  /// 1) pass single-tuple batches. Per-batch and per-epoch ops that read
  /// unmerged tuple values see the batch's last tuple.
  dana::Status EvalBatch(std::span<const TupleData> batch);

  /// Evaluates the per-epoch convergence ops; true == stop. Always false
  /// without a convergence condition.
  dana::Result<bool> EvalConvergence();

  /// Scalar-op executions so far (dynamic instruction count).
  uint64_t ops_executed() const { return ops_executed_; }

 private:
  /// Row r, lane i: dst[r*rd + i] = op(src[a + r*ra + i*sa],
  /// src[b + r*rb + i*sb]) for r in [0, rows), i in [0, n), rows in order.
  /// dst and src are the arena unless stated otherwise. Unary ops read the
  /// arena's zero slot as b.
  struct Strip {
    AluOp op = AluOp::kNop;
    uint32_t n = 0;
    uint32_t rows = 1;
    uint32_t dst = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    int32_t sa = 0;
    int32_t sb = 0;
    int32_t rd = 0;
    int32_t ra = 0;
    int32_t rb = 0;
  };
  /// A variable's element range in the arena.
  struct VarSlots {
    uint32_t offset = 0;
    uint32_t size = 0;
  };
  /// One model write-back: strips whose dst indexes the staged model
  /// vector of `var` and whose operands are arena slots.
  struct WriteBack {
    uint32_t var = 0;
    std::vector<Strip> strips;
  };
  /// Merge slots [first, first + count) combine with `op`.
  struct CombineRun {
    AluOp op = AluOp::kAdd;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  /// One scalar op with its operands resolved to slots.
  struct FlatOp {
    AluOp op = AluOp::kNop;
    uint32_t dst = 0;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// Groups consecutive ops into strips. With `dst_in_arena`, an op joins
  /// a row only if it reads no slot the row writes and no earlier op of
  /// the row reads its destination.
  static std::vector<Strip> BuildStrips(const std::vector<FlatOp>& ops,
                                        bool dst_in_arena);
  static void RunStrips(const std::vector<Strip>& strips, float* dst_base,
                        const float* src);
  /// Merge combination: dst[i] = op(dst[i], src[a + i*sa]).
  static void RunAccumulate(const std::vector<Strip>& strips, float* arena);

  /// Copies tuple `t`'s inputs and outputs into `arena`.
  void LoadTuple(const TupleData& t, float* arena) const;
  /// The per-tuple ops and merge of `batch`, one tuple after another.
  void RunTuples(std::span<const TupleData> batch);
  /// The same on the worker team (RunTuples if another caller holds it).
  void RunTuplesParallel(std::span<const TupleData> batch);
  /// Worker w's part of RunTuplesParallel.
  void RunWorker(std::span<const TupleData> batch, uint32_t w,
                 uint32_t workers);

  std::vector<float> arena_;
  std::vector<VarSlots> model_slots_;
  std::vector<VarSlots> input_slots_;
  std::vector<VarSlots> output_slots_;
  uint32_t convergence_slot_ = 0;
  bool has_convergence_ = false;

  std::vector<Strip> tuple_strips_;
  std::vector<Strip> batch_strips_;
  std::vector<Strip> epoch_strips_;
  /// Merge slot m: first tuple of a batch copies its source (merge_init_),
  /// later tuples combine into it (merge_: dst = combine(dst, src)).
  std::vector<Strip> merge_init_strips_;
  std::vector<Strip> merge_strips_;
  std::vector<WriteBack> writes_;

  /// Parallel batches (kParallelTupleOps). A worker's arena is the arena's
  /// first `worker_span_` slots: model, inputs, outputs, the per-tuple
  /// results and the constants. Stage strips copy a tuple's merge sources
  /// to a staged row (dst indexes the row).
  bool parallel_ = false;
  uint32_t max_batch_ = 1;
  uint32_t worker_span_ = 0;
  uint32_t merge_base_ = 0;
  uint32_t merge_count_ = 0;
  std::vector<Strip> stage_strips_;
  std::vector<CombineRun> combine_runs_;
  /// The workers' arenas, ring and fold counters (no threads); made at the
  /// first parallel batch.
  struct Team;
  std::unique_ptr<Team> team_;

  /// Staged model values: write-back fills these from the arena, then
  /// copies them into the arena's model slots. Model() reads them.
  std::vector<std::vector<float>> model_;
  uint64_t tuple_op_count_ = 0;
  uint64_t batch_op_count_ = 0;
  uint64_t epoch_op_count_ = 0;
  uint64_t ops_executed_ = 0;
};

/// Applies one ALU op in fp32 (shared with tests).
float ApplyAluOp(AluOp op, float a, float b);

}  // namespace dana::engine
