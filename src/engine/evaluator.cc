#include "engine/evaluator.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
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

/// d[i] = op(d[i], a[i*sa]) for i in [0, n).
void Accumulate(AluOp op, uint32_t n, float* d, const float* a, int64_t sa) {
  switch (op) {
    case AluOp::kAdd:
      AccumulateStrip(kAddFn, n, d, a, sa);
      break;
    case AluOp::kMul:
      AccumulateStrip(kMulFn, n, d, a, sa);
      break;
    default:
      AccumulateStrip([op](float x, float y) { return ApplyAluOp(op, x, y); },
                      n, d, a, sa);
      break;
  }
}

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
      bool joins = s.rows == 1 && op.op == s.op &&
                   int64_t{op.dst} == s.dst + n && FitsInt32(sa) &&
                   FitsInt32(sb) && int64_t{op.a} == s.a + n * sa &&
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
    strips.push_back({op.op, 1, 1, op.dst, op.a, op.b, 0, 0, 0, 0, 0});
  }

  // Stack runs of one shape into rows. Rows run in program order, so a row
  // may read what an earlier row wrote.
  std::vector<Strip> stacked;
  for (const Strip& s : strips) {
    if (!stacked.empty()) {
      Strip& t = stacked.back();
      const int64_t rows = t.rows;
      const int64_t rd = t.rows == 1 ? int64_t{s.dst} - t.dst : t.rd;
      const int64_t ra = t.rows == 1 ? int64_t{s.a} - t.a : t.ra;
      const int64_t rb = t.rows == 1 ? int64_t{s.b} - t.b : t.rb;
      if (s.op == t.op && s.n == t.n && s.sa == t.sa && s.sb == t.sb &&
          FitsInt32(rd) && FitsInt32(ra) && FitsInt32(rb) &&
          int64_t{s.dst} == t.dst + rows * rd &&
          int64_t{s.a} == t.a + rows * ra && int64_t{s.b} == t.b + rows * rb) {
        t.rd = static_cast<int32_t>(rd);
        t.ra = static_cast<int32_t>(ra);
        t.rb = static_cast<int32_t>(rb);
        ++t.rows;
        continue;
      }
    }
    stacked.push_back(s);
  }
  return stacked;
}

namespace {

/// Runs every row of strip `s` with `f`.
template <typename F, typename S>
void MapRows(F f, const S& s, float* d, const float* a, const float* b) {
  if (s.rows == 1) {
    MapStrip(f, s.n, d, a, b, s.sa, s.sb);
    return;
  }
  for (int64_t r = 0; r < s.rows; ++r) {
    MapStrip(f, s.n, d + r * s.rd, a + r * s.ra, b + r * s.rb, s.sa, s.sb);
  }
}

}  // namespace

void ScalarEvaluator::RunStrips(const std::vector<Strip>& strips,
                                float* dst_base, const float* src) {
  for (const Strip& s : strips) {
    float* d = dst_base + s.dst;
    const float* a = src + s.a;
    const float* b = src + s.b;
    switch (s.op) {
      case AluOp::kAdd:
        MapRows(kAddFn, s, d, a, b);
        break;
      case AluOp::kSub:
        MapRows(kSubFn, s, d, a, b);
        break;
      case AluOp::kMul:
        MapRows(kMulFn, s, d, a, b);
        break;
      case AluOp::kNop:
      case AluOp::kMov:
        MapRows(kMovFn, s, d, a, b);
        break;
      default: {
        const AluOp op = s.op;
        MapRows([op](float x, float y) { return ApplyAluOp(op, x, y); }, s,
                d, a, b);
        break;
      }
    }
  }
}

void ScalarEvaluator::RunAccumulate(const std::vector<Strip>& strips,
                                    float* arena) {
  for (const Strip& s : strips) {
    for (int64_t r = 0; r < s.rows; ++r) {
      Accumulate(s.op, s.n, arena + s.dst + r * s.rd, arena + s.a + r * s.ra,
                 s.sa);
    }
  }
}

ScalarEvaluator::ScalarEvaluator(const compiler::ScalarProgram& prog)
    : has_convergence_(prog.has_convergence),
      max_batch_(std::max<uint32_t>(prog.merge_coef, 1)),
      merge_count_(static_cast<uint32_t>(prog.merge_slots.size())),
      tuple_op_count_(prog.tuple_ops.size()),
      batch_op_count_(prog.batch_ops.size()),
      epoch_op_count_(prog.epoch_ops.size()) {
  // Arena layout: model | inputs | outputs | tuple | constants | merge |
  // batch | epoch. A worker's arena is everything before the merge slots.
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
  const uint32_t tuple_base = reserve(prog.tuple_ops.size());

  // Constants and meta values are stored as fp32 once, deduplicated by
  // their bit pattern, in order of first use.
  std::vector<float> constants;
  std::map<uint32_t, uint32_t> interned;
  auto intern = [&](float v) {
    auto [it, inserted] = interned.try_emplace(
        std::bit_cast<uint32_t>(v), static_cast<uint32_t>(constants.size()));
    if (inserted) constants.push_back(v);
    return it->second;
  };
  using K = compiler::ValueRef::Kind;
  auto constant = [&](const compiler::ValueRef& ref) -> std::optional<float> {
    switch (ref.kind) {
      case K::kNone:
        return 0.0f;
      case K::kMeta:
        return static_cast<float>(prog.meta_vars[ref.var_id]->meta_value);
      case K::kConst:
        return static_cast<float>(ref.constant);
      default:
        return std::nullopt;
    }
  };
  intern(0.0f);
  auto note = [&](const compiler::ValueRef& ref) {
    if (auto v = constant(ref)) intern(*v);
  };
  for (const auto* ops : {&prog.tuple_ops, &prog.batch_ops, &prog.epoch_ops}) {
    for (const compiler::ScalarOp& op : *ops) {
      note(op.a);
      note(op.b);
    }
  }
  for (const compiler::MergeSlot& m : prog.merge_slots) note(m.src);
  for (const compiler::ModelWrite& w : prog.model_writes) {
    for (const compiler::ValueRef& e : w.elems) note(e);
  }
  if (has_convergence_) note(prog.convergence);
  const uint32_t const_base = reserve(constants.size());
  worker_span_ = static_cast<uint32_t>(next);
  merge_base_ = reserve(prog.merge_slots.size());
  const uint32_t merge_base = merge_base_;
  const uint32_t region_base[] = {tuple_base, reserve(prog.batch_ops.size()),
                                  reserve(prog.epoch_ops.size())};
  DANA_CHECK(next < std::numeric_limits<uint32_t>::max())
      << "scalar program too large for the register arena";
  arena_.assign(next, 0.0f);
  std::copy(constants.begin(), constants.end(), arena_.begin() + const_base);
  const uint32_t zero_slot =
      const_base + interned.at(std::bit_cast<uint32_t>(0.0f));

  model_.resize(model_slots_.size());
  for (size_t m = 0; m < model_slots_.size(); ++m) {
    model_[m].assign(model_slots_[m].size, 0.0f);
  }

  using compiler::ValueRegion;
  const std::vector<compiler::ScalarOp>* region_ops[] = {
      &prog.tuple_ops, &prog.batch_ops, &prog.epoch_ops};
  // order[r] lists region r's ops in evaluation order; position[r][i] is
  // op i's place in it, and so its slot's offset from the region's base.
  std::vector<uint32_t> order[3];
  std::vector<uint32_t> position[3];
  for (int r = 0; r < 3; ++r) {
    const std::vector<compiler::ScalarOp>& ops = *region_ops[r];
    std::vector<uint32_t> level(ops.size(), 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      for (const compiler::ValueRef* v : {&ops[i].a, &ops[i].b}) {
        if (v->kind == K::kSub && static_cast<int>(v->region) == r) {
          level[i] = std::max(level[i], level[v->index] + 1);
        }
      }
    }
    order[r].resize(ops.size());
    for (uint32_t i = 0; i < ops.size(); ++i) order[r][i] = i;
    std::stable_sort(order[r].begin(), order[r].end(),
                     [&](uint32_t x, uint32_t y) {
                       return std::pair(level[x], ops[x].op) <
                              std::pair(level[y], ops[y].op);
                     });
    position[r].resize(ops.size());
    for (uint32_t k = 0; k < ops.size(); ++k) position[r][order[r][k]] = k;
  }

  auto slot = [&](const compiler::ValueRef& ref) -> uint32_t {
    switch (ref.kind) {
      case K::kNone:
        return zero_slot;
      case K::kSub: {
        const int r = static_cast<int>(ref.region);
        return region_base[r] + position[r][ref.index];
      }
      case K::kModel:
        return model_slots_[ref.var_id].offset + ref.index;
      case K::kInput:
        return input_slots_[ref.var_id].offset + ref.index;
      case K::kOutput:
        return output_slots_[ref.var_id].offset + ref.index;
      case K::kMeta:
      case K::kConst:
        return const_base +
               interned.at(std::bit_cast<uint32_t>(*constant(ref)));
      case K::kMergeOut:
        return merge_base + ref.index;
    }
    return zero_slot;
  };

  auto compile_region = [&](ValueRegion region) {
    const int r = static_cast<int>(region);
    const std::vector<compiler::ScalarOp>& ops = *region_ops[r];
    std::vector<FlatOp> flat;
    flat.reserve(ops.size());
    for (uint32_t k = 0; k < ops.size(); ++k) {
      const compiler::ScalarOp& op = ops[order[r][k]];
      flat.push_back({op.op, region_base[r] + k, slot(op.a), slot(op.b)});
    }
    return BuildStrips(flat, /*dst_in_arena=*/true);
  };
  tuple_strips_ = compile_region(ValueRegion::kTuple);
  batch_strips_ = compile_region(ValueRegion::kBatch);
  epoch_strips_ = compile_region(ValueRegion::kEpoch);

  // A worker's arena holds the model, the tuple and the constants: the
  // per-tuple ops and the merge sources must read nothing else.
  auto in_span = [&](const compiler::ValueRef& ref) {
    return slot(ref) < worker_span_;
  };
  parallel_ = prog.tuple_ops.size() >= kParallelTupleOps;
  for (const compiler::ScalarOp& op : prog.tuple_ops) {
    parallel_ = parallel_ && in_span(op.a) && in_span(op.b);
  }
  for (const compiler::MergeSlot& m : prog.merge_slots) {
    parallel_ = parallel_ && in_span(m.src);
  }

  std::vector<FlatOp> init;
  std::vector<FlatOp> combine;
  std::vector<FlatOp> stage;
  for (uint32_t m = 0; m < merge_count_; ++m) {
    const uint32_t dst = merge_base + m;
    const uint32_t src = slot(prog.merge_slots[m].src);
    const AluOp op = prog.merge_slots[m].combine;
    init.push_back({AluOp::kMov, dst, src, zero_slot});
    combine.push_back({op, dst, src, zero_slot});
    stage.push_back({AluOp::kMov, m, src, zero_slot});
    if (combine_runs_.empty() || combine_runs_.back().op != op) {
      combine_runs_.push_back({op, m, 0});
    }
    ++combine_runs_.back().count;
  }
  merge_init_strips_ = BuildStrips(init, /*dst_in_arena=*/true);
  merge_strips_ = BuildStrips(combine, /*dst_in_arena=*/true);
  stage_strips_ = BuildStrips(stage, /*dst_in_arena=*/false);

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

/// What the workers of parallel batches share.
struct ScalarEvaluator::Team {
  /// Each worker's arena starts as a copy of `arena`.
  Team(uint32_t workers, std::span<const float> arena, uint32_t merge_count)
      : arenas(workers - 1, std::vector<float>(arena.begin(), arena.end())),
        ring_rows(2 * workers),
        staged(size_t{ring_rows} * merge_count),
        row_tuple(new std::atomic<uint32_t>[ring_rows]),
        folded(new Folded[workers]) {}

  /// Worker w >= 1 evaluates in arenas[w - 1].
  std::vector<std::vector<float>> arenas;
  /// Staged merge sources: tuple t's in row t % ring_rows, which
  /// row_tuple[t % ring_rows] marks t + 1 once they are there.
  uint32_t ring_rows;
  std::vector<float> staged;
  std::unique_ptr<std::atomic<uint32_t>[]> row_tuple;
  /// Rows worker w has folded into its merge slots, a cache line apiece.
  struct alignas(64) Folded {
    std::atomic<uint32_t> rows{0};
  };
  std::unique_ptr<Folded[]> folded;
};

ScalarEvaluator::~ScalarEvaluator() = default;

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

  if (parallel_ && batch.size() > 1) {
    RunTuplesParallel(batch);
  } else {
    RunTuples(batch);
  }
  float* arena = arena_.data();
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

void ScalarEvaluator::LoadTuple(const TupleData& t, float* arena) const {
  for (size_t i = 0; i < input_slots_.size(); ++i) {
    std::memcpy(arena + input_slots_[i].offset, t.inputs[i].data(),
                sizeof(float) * input_slots_[i].size);
  }
  for (size_t i = 0; i < output_slots_.size(); ++i) {
    std::memcpy(arena + output_slots_[i].offset, t.outputs[i].data(),
                sizeof(float) * output_slots_[i].size);
  }
}

void ScalarEvaluator::RunTuples(std::span<const TupleData> batch) {
  float* arena = arena_.data();
  for (size_t t = 0; t < batch.size(); ++t) {
    LoadTuple(batch[t], arena);
    RunStrips(tuple_strips_, arena, arena);
    if (t == 0) {
      RunStrips(merge_init_strips_, arena, arena);
    } else {
      RunAccumulate(merge_strips_, arena);
    }
  }
}

void ScalarEvaluator::RunTuplesParallel(std::span<const TupleData> batch) {
  TeamLease lease(max_batch_);
  if (lease.width() == 1) return RunTuples(batch);
  // Every lease wider than 1 has the same width: the team's size is fixed.
  if (!team_) {
    team_ = std::make_unique<Team>(
        lease.width(), std::span<const float>(arena_.data(), worker_span_),
        merge_count_);
  }
  Team& team = *team_;
  const auto workers =
      static_cast<uint32_t>(std::min<size_t>(lease.width(), batch.size()));
  for (uint32_t r = 0; r < team.ring_rows; ++r) {
    team.row_tuple[r].store(0, std::memory_order_relaxed);
  }
  for (uint32_t w = 0; w < workers; ++w) {
    team.folded[w].rows.store(0, std::memory_order_relaxed);
  }
  lease.Run(workers, [&](uint32_t w) { RunWorker(batch, w, workers); });
}

void ScalarEvaluator::RunWorker(std::span<const TupleData> batch, uint32_t w,
                                uint32_t workers) {
  Team& team = *team_;
  const auto tuples = static_cast<uint32_t>(batch.size());
  const uint32_t ring = team.ring_rows;
  const auto lo = static_cast<uint32_t>(uint64_t{merge_count_} * w / workers);
  const auto hi =
      static_cast<uint32_t>(uint64_t{merge_count_} * (w + 1) / workers);
  float* acc = arena_.data() + merge_base_;
  float* arena = arena_.data();
  if (w > 0) {
    arena = team.arenas[w - 1].data();
    for (const VarSlots& m : model_slots_) {
      std::memcpy(arena + m.offset, arena_.data() + m.offset,
                  sizeof(float) * m.size);
    }
  }

  // Folds every staged row that is ready, in tuple order, into this
  // worker's merge slots [lo, hi); returns the rows folded so far.
  std::atomic<uint32_t>& folded = team.folded[w].rows;
  auto fold = [&] {
    uint32_t t = folded.load(std::memory_order_relaxed);
    for (; t < tuples && team.row_tuple[t % ring].load(
                             std::memory_order_acquire) == t + 1;
         ++t) {
      const float* src = team.staged.data() + size_t{t % ring} * merge_count_;
      if (t == 0) {
        std::memcpy(acc + lo, src + lo, sizeof(float) * (hi - lo));
      } else {
        for (const CombineRun& run : combine_runs_) {
          const uint32_t first = std::max(lo, run.first);
          const uint32_t last = std::min(hi, run.first + run.count);
          if (first < last) {
            Accumulate(run.op, last - first, acc + first, src + first, 1);
          }
        }
      }
      folded.store(t + 1, std::memory_order_release);
    }
    return t;
  };
  // Evaluates tuple t and stages its merge sources in ring row t % ring,
  // once every worker has folded the tuple that row held before.
  auto run_tuple = [&](uint32_t t) {
    for (Backoff backoff;; backoff.Pause()) {
      uint32_t least = tuples;
      for (uint32_t v = 0; v < workers; ++v) {
        least = std::min(
            least, team.folded[v].rows.load(std::memory_order_acquire));
      }
      if (t < least + ring) break;
      fold();
    }
    LoadTuple(batch[t], arena);
    RunStrips(tuple_strips_, arena, arena);
    RunStrips(stage_strips_,
              team.staged.data() + size_t{t % ring} * merge_count_, arena);
    team.row_tuple[t % ring].store(t + 1, std::memory_order_release);
  };
  // Tuple t goes to worker (tuples - 1 - t) % workers, so the caller's
  // arena ends up holding the last tuple.
  for (uint32_t t = (tuples - 1 - w) % workers; t < tuples; t += workers) {
    run_tuple(t);
  }
  for (Backoff backoff; fold() < tuples;) backoff.Pause();
}

Result<bool> ScalarEvaluator::EvalConvergence() {
  if (!has_convergence_) return false;
  RunStrips(epoch_strips_, arena_.data(), arena_.data());
  ops_executed_ += epoch_op_count_;
  return arena_[convergence_slot_] != 0.0f;
}

}  // namespace dana::engine
