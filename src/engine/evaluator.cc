#include "engine/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "common/logging.h"
#include "hdfg/graph.h"

namespace dana::engine {

float ApplyAluOp(AluOp op, float a, float b) {
  switch (op) {
    case AluOp::kNop:
    case AluOp::kMov:
      return a;
    case AluOp::kAdd:
      return a + b;
    case AluOp::kSub:
      return a - b;
    case AluOp::kMul:
      return a * b;
    case AluOp::kDiv:
      return a / b;
    case AluOp::kLt:
      return a < b ? 1.0f : 0.0f;
    case AluOp::kGt:
      return a > b ? 1.0f : 0.0f;
    case AluOp::kSigmoid:
      return 1.0f / (1.0f + std::exp(-a));
    case AluOp::kGaussian:
      return std::exp(-a * a);
    case AluOp::kSqrt:
      return std::sqrt(a);
  }
  return 0.0f;
}

namespace {

/// d[i] = f(a[i*sa], b[i*sb]), specialised for the stride pairs LowerGraph
/// emits (elementwise nodes, broadcast scalars, ReduceTree levels) so the
/// compiler can vectorise them. The strip builder guarantees d never
/// overlaps a or b, so each lane is the same fp32 op in any order.
template <typename F>
void MapStrip(F f, uint32_t n, float* __restrict d, const float* __restrict a,
              const float* __restrict b, int64_t sa, int64_t sb) {
  if (sa == 1 && sb == 1) {
    for (uint32_t i = 0; i < n; ++i) d[i] = f(a[i], b[i]);
  } else if (sa == 1 && sb == 0) {
    const float y = *b;
    for (uint32_t i = 0; i < n; ++i) d[i] = f(a[i], y);
  } else if (sa == 0 && sb == 1) {
    const float x = *a;
    for (uint32_t i = 0; i < n; ++i) d[i] = f(x, b[i]);
  } else if (sa == 2 && sb == 2) {
    for (uint32_t i = 0; i < n; ++i) d[i] = f(a[2 * i], b[2 * i]);
  } else {
    // Signed 64-bit: a negative stride times an unsigned index would wrap.
    for (int64_t i = 0; i < n; ++i) d[i] = f(a[i * sa], b[i * sb]);
  }
}

template <typename F>
void AccumulateStrip(F f, uint32_t n, float* __restrict d,
                     const float* __restrict a, int64_t sa) {
  if (sa == 1) {
    for (uint32_t i = 0; i < n; ++i) d[i] = f(d[i], a[i]);
  } else {
    for (int64_t i = 0; i < n; ++i) d[i] = f(d[i], a[i * sa]);
  }
}

constexpr auto kAddFn = [](float x, float y) { return x + y; };
constexpr auto kSubFn = [](float x, float y) { return x - y; };
constexpr auto kMulFn = [](float x, float y) { return x * y; };
constexpr auto kMovFn = [](float x, float) { return x; };

/// True when `slot` lies within the hull of the `count` reads starting at
/// `first` with stride `stride`.
bool WithinReads(uint32_t slot, int64_t first, int64_t stride,
                 uint32_t count) {
  const int64_t last = first + stride * (static_cast<int64_t>(count) - 1);
  const int64_t s = slot;
  return s >= std::min(first, last) && s <= std::max(first, last);
}

bool FitsInt32(int64_t v) {
  return v >= std::numeric_limits<int32_t>::min() &&
         v <= std::numeric_limits<int32_t>::max();
}

}  // namespace

std::vector<ScalarEvaluator::Strip> ScalarEvaluator::BuildStrips(
    const std::vector<FlatOp>& ops, bool dst_in_arena) {
  std::vector<Strip> strips;
  for (const FlatOp& op : ops) {
    if (!strips.empty()) {
      Strip& s = strips.back();
      const int64_t n = s.n;
      const int64_t sa = s.n == 1 ? int64_t{op.a} - s.a : s.sa;
      const int64_t sb = s.n == 1 ? int64_t{op.b} - s.b : s.sb;
      bool joins = op.op == s.op && int64_t{op.dst} == s.dst + n &&
                   FitsInt32(sa) && FitsInt32(sb) &&
                   int64_t{op.a} == s.a + n * sa &&
                   int64_t{op.b} == s.b + n * sb;
      if (joins && dst_in_arena) {
        const auto written = [&](uint32_t slot) {
          return slot >= s.dst && slot <= op.dst;
        };
        joins = !written(op.a) && !written(op.b) &&
                !WithinReads(op.dst, s.a, sa, s.n) &&
                !WithinReads(op.dst, s.b, sb, s.n);
      }
      if (joins) {
        s.sa = static_cast<int32_t>(sa);
        s.sb = static_cast<int32_t>(sb);
        ++s.n;
        continue;
      }
    }
    strips.push_back({op.op, 1, op.dst, op.a, op.b, 0, 0});
  }
  return strips;
}

void ScalarEvaluator::RunStrips(const std::vector<Strip>& strips,
                                float* dst_base, const float* src) {
  for (const Strip& s : strips) {
    float* d = dst_base + s.dst;
    const float* a = src + s.a;
    const float* b = src + s.b;
    switch (s.op) {
      case AluOp::kAdd:
        MapStrip(kAddFn, s.n, d, a, b, s.sa, s.sb);
        break;
      case AluOp::kSub:
        MapStrip(kSubFn, s.n, d, a, b, s.sa, s.sb);
        break;
      case AluOp::kMul:
        MapStrip(kMulFn, s.n, d, a, b, s.sa, s.sb);
        break;
      case AluOp::kNop:
      case AluOp::kMov:
        MapStrip(kMovFn, s.n, d, a, b, s.sa, s.sb);
        break;
      default: {
        const AluOp op = s.op;
        MapStrip([op](float x, float y) { return ApplyAluOp(op, x, y); },
                 s.n, d, a, b, s.sa, s.sb);
        break;
      }
    }
  }
}

void ScalarEvaluator::RunAccumulate(const std::vector<Strip>& strips,
                                    float* arena) {
  for (const Strip& s : strips) {
    float* d = arena + s.dst;
    const float* a = arena + s.a;
    switch (s.op) {
      case AluOp::kAdd:
        AccumulateStrip(kAddFn, s.n, d, a, s.sa);
        break;
      case AluOp::kMul:
        AccumulateStrip(kMulFn, s.n, d, a, s.sa);
        break;
      default: {
        const AluOp op = s.op;
        AccumulateStrip([op](float x, float y) { return ApplyAluOp(op, x, y); },
                        s.n, d, a, s.sa);
        break;
      }
    }
  }
}

ScalarEvaluator::ScalarEvaluator(const compiler::ScalarProgram& prog)
    : has_convergence_(prog.has_convergence),
      tuple_op_count_(prog.tuple_ops.size()),
      batch_op_count_(prog.batch_ops.size()),
      epoch_op_count_(prog.epoch_ops.size()) {
  // Arena layout: model | inputs | outputs | merge | tuple | batch | epoch,
  // then the interned constants.
  uint64_t next = 0;
  auto reserve = [&](uint64_t n) {
    const uint64_t offset = next;
    next += n;
    return static_cast<uint32_t>(offset);
  };
  auto lay_out = [&](const std::vector<std::shared_ptr<const dsl::Var>>& vars,
                     std::vector<VarSlots>* slots) {
    for (const auto& var : vars) {
      const uint64_t n = hdfg::NumElements(var->dims);
      slots->push_back({reserve(n), static_cast<uint32_t>(n)});
    }
  };
  lay_out(prog.model_vars, &model_slots_);
  lay_out(prog.input_vars, &input_slots_);
  lay_out(prog.output_vars, &output_slots_);
  const uint32_t merge_base = reserve(prog.merge_slots.size());
  const uint32_t region_base[] = {reserve(prog.tuple_ops.size()),
                                  reserve(prog.batch_ops.size()),
                                  reserve(prog.epoch_ops.size())};
  DANA_CHECK(next < std::numeric_limits<uint32_t>::max())
      << "scalar program too large for the register arena";
  arena_.assign(next, 0.0f);

  model_.resize(model_slots_.size());
  for (size_t m = 0; m < model_slots_.size(); ++m) {
    model_[m].assign(model_slots_[m].size, 0.0f);
  }

  // Constants and meta values are stored as fp32 once, deduplicated by
  // their bit pattern.
  std::map<uint32_t, uint32_t> interned;
  auto intern = [&](float v) {
    auto [it, inserted] = interned.try_emplace(
        std::bit_cast<uint32_t>(v), static_cast<uint32_t>(arena_.size()));
    if (inserted) arena_.push_back(v);
    return it->second;
  };
  const uint32_t zero_slot = intern(0.0f);

  using K = compiler::ValueRef::Kind;
  auto slot = [&](const compiler::ValueRef& ref) -> uint32_t {
    switch (ref.kind) {
      case K::kNone:
        return zero_slot;
      case K::kSub:
        return region_base[static_cast<int>(ref.region)] + ref.index;
      case K::kModel:
        return model_slots_[ref.var_id].offset + ref.index;
      case K::kInput:
        return input_slots_[ref.var_id].offset + ref.index;
      case K::kOutput:
        return output_slots_[ref.var_id].offset + ref.index;
      case K::kMeta:
        return intern(
            static_cast<float>(prog.meta_vars[ref.var_id]->meta_value));
      case K::kConst:
        return intern(static_cast<float>(ref.constant));
      case K::kMergeOut:
        return merge_base + ref.index;
    }
    return zero_slot;
  };

  auto compile_region = [&](const std::vector<compiler::ScalarOp>& ops,
                            compiler::ValueRegion region) {
    const uint32_t base = region_base[static_cast<int>(region)];
    std::vector<FlatOp> flat;
    flat.reserve(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      flat.push_back({ops[i].op, base + static_cast<uint32_t>(i),
                      slot(ops[i].a), slot(ops[i].b)});
    }
    return BuildStrips(flat, /*dst_in_arena=*/true);
  };
  tuple_strips_ = compile_region(prog.tuple_ops, compiler::ValueRegion::kTuple);
  batch_strips_ = compile_region(prog.batch_ops, compiler::ValueRegion::kBatch);
  epoch_strips_ = compile_region(prog.epoch_ops, compiler::ValueRegion::kEpoch);

  std::vector<FlatOp> init;
  std::vector<FlatOp> combine;
  for (size_t m = 0; m < prog.merge_slots.size(); ++m) {
    const uint32_t dst = merge_base + static_cast<uint32_t>(m);
    const uint32_t src = slot(prog.merge_slots[m].src);
    init.push_back({AluOp::kMov, dst, src, zero_slot});
    combine.push_back({prog.merge_slots[m].combine, dst, src, zero_slot});
  }
  merge_init_strips_ = BuildStrips(init, /*dst_in_arena=*/true);
  merge_strips_ = BuildStrips(combine, /*dst_in_arena=*/true);

  for (const compiler::ModelWrite& write : prog.model_writes) {
    DANA_CHECK(write.elems.size() == model_[write.model_var].size())
        << "model write of " << write.elems.size() << " elements to a "
        << model_[write.model_var].size() << "-element model";
    std::vector<FlatOp> copies;
    copies.reserve(write.elems.size());
    for (size_t e = 0; e < write.elems.size(); ++e) {
      copies.push_back({AluOp::kMov, static_cast<uint32_t>(e),
                        slot(write.elems[e]), zero_slot});
    }
    writes_.push_back(
        {write.model_var, BuildStrips(copies, /*dst_in_arena=*/false)});
  }
  if (has_convergence_) convergence_slot_ = slot(prog.convergence);
}

Status ScalarEvaluator::SetModel(uint32_t model_var,
                                 std::span<const float> values) {
  if (model_var >= model_.size()) {
    return Status::OutOfRange("model var " + std::to_string(model_var) +
                              " out of range");
  }
  if (values.size() != model_[model_var].size()) {
    return Status::InvalidArgument("model value size mismatch");
  }
  model_[model_var].assign(values.begin(), values.end());
  std::copy(values.begin(), values.end(),
            arena_.begin() + model_slots_[model_var].offset);
  return Status::OK();
}

Status ScalarEvaluator::EvalBatch(std::span<const TupleData> batch) {
  if (batch.empty()) {
    return Status::InvalidArgument("EvalBatch: empty batch");
  }
  for (const TupleData& t : batch) {
    if (t.inputs.size() != input_slots_.size() ||
        t.outputs.size() != output_slots_.size()) {
      return Status::InvalidArgument("tuple variable count mismatch");
    }
    for (size_t i = 0; i < t.inputs.size(); ++i) {
      if (t.inputs[i].size() != input_slots_[i].size) {
        return Status::InvalidArgument(
            "input var " + std::to_string(i) + " has " +
            std::to_string(t.inputs[i].size()) + " elements, expected " +
            std::to_string(input_slots_[i].size));
      }
    }
    for (size_t i = 0; i < t.outputs.size(); ++i) {
      if (t.outputs[i].size() != output_slots_[i].size) {
        return Status::InvalidArgument(
            "output var " + std::to_string(i) + " has " +
            std::to_string(t.outputs[i].size()) + " elements, expected " +
            std::to_string(output_slots_[i].size));
      }
    }
  }

  float* arena = arena_.data();
  for (size_t t = 0; t < batch.size(); ++t) {
    for (size_t i = 0; i < input_slots_.size(); ++i) {
      std::memcpy(arena + input_slots_[i].offset, batch[t].inputs[i].data(),
                  sizeof(float) * input_slots_[i].size);
    }
    for (size_t i = 0; i < output_slots_.size(); ++i) {
      std::memcpy(arena + output_slots_[i].offset, batch[t].outputs[i].data(),
                  sizeof(float) * output_slots_[i].size);
    }
    RunStrips(tuple_strips_, arena, arena);
    if (t == 0) {
      RunStrips(merge_init_strips_, arena, arena);
    } else {
      RunAccumulate(merge_strips_, arena);
    }
  }
  // The arena now holds the last tuple's inputs, outputs and per-tuple
  // results: what per-batch ops see of unmerged tuple values.
  RunStrips(batch_strips_, arena, arena);
  ops_executed_ += tuple_op_count_ * batch.size() + batch_op_count_;

  // Stage then apply model writes (updates may read the old model).
  for (const WriteBack& w : writes_) {
    RunStrips(w.strips, model_[w.var].data(), arena);
  }
  for (const WriteBack& w : writes_) {
    std::memcpy(arena + model_slots_[w.var].offset, model_[w.var].data(),
                sizeof(float) * model_slots_[w.var].size);
  }
  return Status::OK();
}

Result<bool> ScalarEvaluator::EvalConvergence() {
  if (!has_convergence_) return false;
  RunStrips(epoch_strips_, arena_.data(), arena_.data());
  ops_executed_ += epoch_op_count_;
  return arena_[convergence_slot_] != 0.0f;
}

}  // namespace dana::engine
