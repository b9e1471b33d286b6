#pragma once

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
/// in one contiguous fp32 register arena (model, inputs, outputs, merge
/// slots, the per-tuple/batch/epoch op results, and interned constants),
/// and each region's ops are grouped into strips: maximal runs of one ALU
/// op with consecutive destinations and constant operand strides, none
/// reading a slot the strip itself writes. A strip runs as one loop. Every
/// op is still its own fp32 operation in program order (no reassociation,
/// no fusion), so results are bit-identical to evaluating op by op.
class ScalarEvaluator {
 public:
  explicit ScalarEvaluator(const compiler::ScalarProgram& prog);

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
  /// dst[i] = op(src[a + i*sa], src[b + i*sb]) for i in [0, n), where dst
  /// and src are the arena unless stated otherwise. Unary ops read the
  /// arena's zero slot as b.
  struct Strip {
    AluOp op = AluOp::kNop;
    uint32_t n = 0;
    uint32_t dst = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    int32_t sa = 0;
    int32_t sb = 0;
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

  /// One scalar op with its operands resolved to slots.
  struct FlatOp {
    AluOp op = AluOp::kNop;
    uint32_t dst = 0;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// Groups consecutive ops into strips. With `dst_in_arena`, an op joins
  /// a strip only if it reads no slot the strip writes and no earlier op
  /// of the strip reads its destination.
  static std::vector<Strip> BuildStrips(const std::vector<FlatOp>& ops,
                                        bool dst_in_arena);
  static void RunStrips(const std::vector<Strip>& strips, float* dst_base,
                        const float* src);
  /// Merge combination: dst[i] = op(dst[i], src[a + i*sa]).
  static void RunAccumulate(const std::vector<Strip>& strips, float* arena);

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
