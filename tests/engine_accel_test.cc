#include <gtest/gtest.h>

#include <cmath>

#include "accel/accelerator.h"
#include "compiler/compiler.h"
#include "engine/evaluator.h"
#include "hdfg/interpreter.h"
#include "hdfg/translator.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "storage/buffer_pool.h"

namespace dana {
namespace {

using compiler::ScalarProgram;
using engine::ScalarEvaluator;
using engine::TupleData;

ml::AlgoParams Params(uint32_t dims, uint32_t coef, ml::AlgoKind kind) {
  ml::AlgoParams p;
  p.dims = dims;
  p.rank = 4;
  p.merge_coef = coef;
  p.epochs = 3;
  p.learning_rate = kind == ml::AlgoKind::kLowRankMF ? 0.5 : 0.3;
  return p;
}

ScalarProgram Lower(ml::AlgoKind kind, const ml::AlgoParams& p) {
  auto algo = std::move(ml::BuildAlgo(kind, p)).ValueOrDie();
  auto graph = std::move(hdfg::Translator::Translate(*algo)).ValueOrDie();
  return std::move(compiler::LowerGraph(graph)).ValueOrDie();
}

TupleData MakeTuple(const ScalarProgram& prog,
                    const std::vector<double>& row) {
  TupleData t;
  t.inputs.resize(prog.input_vars.size());
  t.outputs.resize(prog.output_vars.size());
  const uint64_t d = hdfg::NumElements(prog.input_vars[0]->dims);
  t.inputs[0].assign(row.begin(), row.begin() + d);
  if (!prog.output_vars.empty()) {
    t.outputs[0] = {static_cast<float>(row[d])};
  }
  return t;
}

// ---------------------------------------------------------------------------
// ALU semantics
// ---------------------------------------------------------------------------

TEST(AluTest, OpSemantics) {
  using engine::AluOp;
  using engine::ApplyAluOp;
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kAdd, 2, 3), 5);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kSub, 2, 3), -1);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kMul, 2, 3), 6);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kDiv, 3, 2), 1.5);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kLt, 1, 2), 1.0f);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kGt, 1, 2), 0.0f);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kSigmoid, 0, 0), 0.5f);
  EXPECT_NEAR(ApplyAluOp(AluOp::kGaussian, 1, 0), std::exp(-1.0f), 1e-6);
  EXPECT_FLOAT_EQ(ApplyAluOp(AluOp::kSqrt, 9, 0), 3.0f);
}

TEST(AluTest, LatenciesPositiveAndOrdered) {
  using engine::AluOp;
  using engine::AluOpLatency;
  EXPECT_EQ(AluOpLatency(AluOp::kAdd), 1u);
  EXPECT_GT(AluOpLatency(AluOp::kMul), AluOpLatency(AluOp::kAdd));
  EXPECT_GT(AluOpLatency(AluOp::kDiv), AluOpLatency(AluOp::kMul));
  EXPECT_GT(AluOpLatency(AluOp::kSigmoid), 1u);
}

// ---------------------------------------------------------------------------
// ScalarEvaluator vs the double-precision interpreter
// ---------------------------------------------------------------------------

class EvaluatorVsInterpreter : public ::testing::TestWithParam<ml::AlgoKind> {
};

TEST_P(EvaluatorVsInterpreter, BatchesProduceSameModel) {
  const ml::AlgoKind kind = GetParam();
  ml::AlgoParams p = Params(12, 4, kind);
  auto algo = std::move(ml::BuildAlgo(kind, p)).ValueOrDie();
  auto graph = std::move(hdfg::Translator::Translate(*algo)).ValueOrDie();
  auto prog = std::move(compiler::LowerGraph(graph)).ValueOrDie();

  ml::DatasetSpec spec;
  spec.kind = kind;
  spec.dims = p.dims;
  spec.rank = p.rank;
  spec.tuples = 64;
  ml::Dataset data = ml::GenerateDataset(spec);

  ScalarEvaluator evaluator(prog);
  hdfg::Interpreter interpreter(graph);

  // Both engines start from the shared deterministic initial model.
  const std::vector<float> init = ml::InitialModel(kind, p);
  ASSERT_TRUE(evaluator.SetModel(0, init).ok());
  hdfg::Tensor init64;
  init64.dims = prog.model_vars[0]->dims;
  init64.data.assign(init.begin(), init.end());
  interpreter.SetModelValue(prog.model_vars[0].get(), std::move(init64));

  // Find the DSL input/output vars for interpreter bindings.
  const dsl::Var* in_var = prog.input_vars[0].get();
  const dsl::Var* out_var =
      prog.output_vars.empty() ? nullptr : prog.output_vars[0].get();

  std::vector<TupleData> batch;
  std::vector<hdfg::TupleBinding> bindings;
  for (const auto& row : data.rows) {
    batch.push_back(MakeTuple(prog, row));
    hdfg::TupleBinding b;
    hdfg::Tensor in;
    in.dims = in_var->dims;
    in.data.assign(row.begin(), row.begin() + p.dims);
    b[in_var] = in;
    if (out_var) b[out_var] = hdfg::Tensor::Scalar(row[p.dims]);
    bindings.push_back(std::move(b));
    if (batch.size() == p.merge_coef) {
      ASSERT_TRUE(evaluator.EvalBatch(batch).ok());
      ASSERT_TRUE(interpreter.EvalBatch(bindings).ok());
      batch.clear();
      bindings.clear();
    }
  }

  const auto& m32 = evaluator.Model(0);
  const auto& m64 = interpreter.ModelValue(prog.model_vars[0].get()).data;
  ASSERT_EQ(m32.size(), m64.size());
  for (size_t i = 0; i < m32.size(); ++i) {
    EXPECT_NEAR(m32[i], m64[i], 1e-3 * (1.0 + std::fabs(m64[i])))
        << "element " << i << " for " << ml::AlgoKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algos, EvaluatorVsInterpreter,
    ::testing::Values(ml::AlgoKind::kLinearRegression,
                      ml::AlgoKind::kLogisticRegression, ml::AlgoKind::kSvm,
                      ml::AlgoKind::kLowRankMF));

// ---------------------------------------------------------------------------
// Bit-exact fp32 goldens. Each constant is the FNV-1a digest of the model
// bytes (plus the convergence flag) after two epochs over a few batches of
// seeded data, recorded from the one-op-at-a-time evaluator. Any evaluator
// that reorders, fuses or reassociates an fp32 op changes a digest. The
// dims are even, but their ReduceTree levels go odd (54 -> 27 -> 13 ...),
// and a partial last batch exercises short merges.
// ---------------------------------------------------------------------------

struct GoldenCase {
  ml::AlgoKind kind;
  uint32_t dims;
  uint32_t coef;
  uint64_t digest;
};

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << ml::AlgoKindName(c.kind) << " dims " << c.dims << " merge_coef "
      << c.coef;
}

class EvaluatorGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EvaluatorGolden, ModelDigestIsBitExact) {
  const GoldenCase& c = GetParam();
  ml::AlgoParams p = Params(c.dims, c.coef, c.kind);
  // A convergence test adds the per-epoch region (LRMF's merged gradient
  // is a matrix, whose column norms are not one scalar condition).
  if (c.kind != ml::AlgoKind::kLowRankMF) p.convergence_norm = 0.5;
  auto prog = Lower(c.kind, p);

  ml::DatasetSpec spec;
  spec.kind = c.kind;
  spec.dims = c.dims;
  spec.rank = p.rank;
  spec.tuples = 3 * c.coef + 5;
  spec.seed = 7;
  const ml::Dataset data = ml::GenerateDataset(spec);

  ScalarEvaluator ev(prog);
  ASSERT_TRUE(ev.SetModel(0, ml::InitialModel(c.kind, p)).ok());
  uint64_t h = 0xcbf29ce484222325ull;
  std::vector<TupleData> batch;
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (size_t r = 0; r < data.rows.size(); ++r) {
      batch.push_back(MakeTuple(prog, data.rows[r]));
      if (batch.size() == c.coef || r + 1 == data.rows.size()) {
        ASSERT_TRUE(ev.EvalBatch(batch).ok());
        batch.clear();
      }
    }
    auto stop = ev.EvalConvergence();
    ASSERT_TRUE(stop.ok());
    const uint8_t flag = *stop ? 1 : 0;
    h = Fnv1a(h, &flag, 1);
  }
  const std::vector<float>& model = ev.Model(0);
  h = Fnv1a(h, model.data(), model.size() * sizeof(float));
  EXPECT_EQ(h, c.digest) << "got 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Algos, EvaluatorGolden,
    ::testing::Values(
        GoldenCase{ml::AlgoKind::kLinearRegression, 54, 1,
                   0x3738ff50985fcec1ull},
        GoldenCase{ml::AlgoKind::kLinearRegression, 54, 64,
                   0xaf219878bf0ec8b6ull},
        GoldenCase{ml::AlgoKind::kLinearRegression, 450, 1,
                   0xde0dc2c5ac20472bull},
        GoldenCase{ml::AlgoKind::kLinearRegression, 450, 64,
                   0x782e3dfaf74daecull},
        GoldenCase{ml::AlgoKind::kLogisticRegression, 54, 1,
                   0x6cc17d93e7516071ull},
        GoldenCase{ml::AlgoKind::kLogisticRegression, 54, 64,
                   0x88779d9eeae39a0dull},
        GoldenCase{ml::AlgoKind::kLogisticRegression, 450, 1,
                   0xaea0c124b49c9c5bull},
        GoldenCase{ml::AlgoKind::kLogisticRegression, 450, 64,
                   0x1d584957a7995a17ull},
        GoldenCase{ml::AlgoKind::kSvm, 54, 1,
                   0x68818ba430b952ebull},
        GoldenCase{ml::AlgoKind::kSvm, 54, 64,
                   0x894d1b1567898ec5ull},
        GoldenCase{ml::AlgoKind::kSvm, 450, 1,
                   0xd2dcf2900427ee67ull},
        GoldenCase{ml::AlgoKind::kSvm, 450, 64,
                   0xec29cda6d63c86b2ull},
        GoldenCase{ml::AlgoKind::kLowRankMF, 54, 1,
                   0xaf560de3d93ad1d5ull},
        GoldenCase{ml::AlgoKind::kLowRankMF, 54, 64,
                   0x14ecf90f4ea0e0c2ull},
        GoldenCase{ml::AlgoKind::kLowRankMF, 450, 1,
                   0xb99258bf8de61986ull},
        GoldenCase{ml::AlgoKind::kLowRankMF, 450, 64,
                   0xb90859609454c3f9ull}));

TEST(EvaluatorTest, ModelWritesAreStaged) {
  // The update mo' = mo - g must read the pre-update mo everywhere even
  // though writes and reads interleave element-wise.
  ml::AlgoParams p = Params(4, 1, ml::AlgoKind::kLinearRegression);
  auto prog = Lower(ml::AlgoKind::kLinearRegression, p);
  ScalarEvaluator ev(prog);
  std::vector<float> init = {1, 2, 3, 4};
  ASSERT_TRUE(ev.SetModel(0, init).ok());
  TupleData t;
  t.inputs = {{0, 0, 0, 0}};
  t.outputs = {{0}};
  ASSERT_TRUE(ev.EvalBatch({&t, 1}).ok());
  EXPECT_EQ(ev.Model(0), init);  // zero gradient: unchanged
}

TEST(EvaluatorTest, DependentOpsRunInProgramOrder) {
  // t%i = t%(i-1) + 1: one ALU op, consecutive destinations and constant
  // strides, yet every op reads the previous op's result. Such a chain
  // must not run as one strip, whose lanes would read stale values.
  constexpr uint32_t kN = 64;
  auto model = std::make_shared<dsl::Var>();
  model->kind = dsl::VarKind::kModel;
  model->name = "mo";
  model->dims = {kN};
  ScalarProgram prog;
  prog.model_vars = {model};
  compiler::ValueRef first;
  first.kind = compiler::ValueRef::Kind::kModel;
  prog.tuple_ops.push_back(
      {engine::AluOp::kAdd, first, compiler::ValueRef::Const(1)});
  compiler::ModelWrite write;
  write.elems.push_back(
      compiler::ValueRef::Sub(compiler::ValueRegion::kTuple, 0));
  for (uint32_t i = 1; i < kN; ++i) {
    prog.tuple_ops.push_back(
        {engine::AluOp::kAdd,
         compiler::ValueRef::Sub(compiler::ValueRegion::kTuple, i - 1),
         compiler::ValueRef::Const(1)});
    write.elems.push_back(
        compiler::ValueRef::Sub(compiler::ValueRegion::kTuple, i));
  }
  prog.model_writes.push_back(std::move(write));

  ScalarEvaluator ev(prog);
  const TupleData t;
  ASSERT_TRUE(ev.EvalBatch({&t, 1}).ok());
  std::vector<float> want(kN);
  for (uint32_t i = 0; i < kN; ++i) want[i] = static_cast<float>(i + 1);
  EXPECT_EQ(ev.Model(0), want);
}

TEST(EvaluatorTest, RejectsWrongModelSize) {
  auto prog = Lower(ml::AlgoKind::kLinearRegression,
                    Params(4, 1, ml::AlgoKind::kLinearRegression));
  ScalarEvaluator ev(prog);
  std::vector<float> bad = {1, 2};
  EXPECT_TRUE(ev.SetModel(0, bad).IsInvalidArgument());
  EXPECT_TRUE(ev.SetModel(9, bad).IsOutOfRange());
}

TEST(EvaluatorTest, RejectsMismatchedTuple) {
  auto prog = Lower(ml::AlgoKind::kLinearRegression,
                    Params(4, 1, ml::AlgoKind::kLinearRegression));
  ScalarEvaluator ev(prog);
  TupleData t;  // no inputs
  EXPECT_TRUE(ev.EvalBatch({&t, 1}).IsInvalidArgument());
  EXPECT_TRUE(ev.EvalBatch({}).IsInvalidArgument());

  // Right variable count, wrong element count: short and long inputs and
  // outputs against the 4-element input and the scalar output.
  t.inputs = {{1, 2}};
  t.outputs = {{1}};
  EXPECT_TRUE(ev.EvalBatch({&t, 1}).IsInvalidArgument());
  t.inputs = {{1, 2, 3, 4, 5}};
  EXPECT_TRUE(ev.EvalBatch({&t, 1}).IsInvalidArgument());
  t.inputs = {{1, 2, 3, 4}};
  t.outputs = {{}};
  EXPECT_TRUE(ev.EvalBatch({&t, 1}).IsInvalidArgument());
  t.outputs = {{1, 2}};
  EXPECT_TRUE(ev.EvalBatch({&t, 1}).IsInvalidArgument());

  // One bad tuple rejects the whole batch before any op runs.
  TupleData good;
  good.inputs = {{1, 2, 3, 4}};
  good.outputs = {{1}};
  const TupleData mixed[] = {good, t};
  EXPECT_TRUE(ev.EvalBatch(mixed).IsInvalidArgument());
  EXPECT_EQ(ev.ops_executed(), 0u);
  EXPECT_EQ(ev.Model(0), std::vector<float>(4, 0.0f));
  EXPECT_TRUE(ev.EvalBatch({&good, 1}).ok());
}

TEST(EvaluatorTest, CountsExecutedOps) {
  auto prog = Lower(ml::AlgoKind::kLinearRegression,
                    Params(4, 1, ml::AlgoKind::kLinearRegression));
  ScalarEvaluator ev(prog);
  TupleData t;
  t.inputs = {{1, 1, 1, 1}};
  t.outputs = {{1}};
  ASSERT_TRUE(ev.EvalBatch({&t, 1}).ok());
  EXPECT_EQ(ev.ops_executed(),
            prog.tuple_ops.size() + prog.batch_ops.size());
}

// ---------------------------------------------------------------------------
// Accelerator end-to-end
// ---------------------------------------------------------------------------

struct AccelFixture {
  std::unique_ptr<storage::Table> table;
  std::unique_ptr<storage::BufferPool> pool;
  compiler::CompiledUdf udf;
  ml::Dataset data;
  ml::AlgoParams params;
  ml::AlgoKind kind;

  static AccelFixture Make(ml::AlgoKind kind, uint32_t dims, uint32_t coef,
                           uint64_t tuples,
                           compiler::HardwareGenerator::Options hw = {}) {
    AccelFixture f;
    f.kind = kind;
    f.params = Params(dims, coef, kind);
    ml::DatasetSpec spec;
    spec.kind = kind;
    spec.dims = dims;
    spec.rank = f.params.rank;
    spec.tuples = tuples;
    f.data = ml::GenerateDataset(spec);
    storage::PageLayout layout;
    f.table = std::move(ml::BuildTable("t", f.data, layout)).ValueOrDie();
    f.pool = std::make_unique<storage::BufferPool>(64ull << 20, 32 * 1024,
                                                   storage::DiskModel{});

    auto algo = std::move(ml::BuildAlgo(kind, f.params)).ValueOrDie();
    compiler::WorkloadShape shape;
    shape.num_tuples = f.table->num_tuples();
    shape.num_pages = f.table->num_pages();
    shape.tuples_per_page = f.table->TuplesOnPage(0);
    shape.tuple_payload_bytes = f.table->schema().RowBytes();
    compiler::UdfCompiler compiler{compiler::FpgaSpec{}, hw};
    f.udf = std::move(compiler.Compile(*algo, layout, shape)).ValueOrDie();
    return f;
  }

  accel::RunReport Train(accel::RunOptions opt = {}) {
    if (opt.initial_models.empty()) {
      opt.initial_models = {ml::InitialModel(kind, params)};
    }
    accel::Accelerator acc(udf);
    return std::move(acc.Train(*table, pool.get(), opt)).ValueOrDie();
  }
};

class AcceleratorAlgoTest : public ::testing::TestWithParam<ml::AlgoKind> {};

TEST_P(AcceleratorAlgoTest, TrainingMatchesReferenceAndReducesLoss) {
  const ml::AlgoKind kind = GetParam();
  auto f = AccelFixture::Make(kind, 16, 4, 256);
  auto report = f.Train();

  EXPECT_EQ(report.epochs_run, 3u);
  EXPECT_EQ(report.tuples_processed, 3u * 256);
  EXPECT_GT(report.fpga_cycles, 0u);

  ml::ReferenceTrainer ref(kind, f.params);
  auto ref_model = std::move(ref.Train(f.data, 3)).ValueOrDie();
  ASSERT_EQ(report.final_models[0].size(), ref_model.size());
  for (size_t i = 0; i < ref_model.size(); ++i) {
    EXPECT_NEAR(report.final_models[0][i], ref_model[i],
                1e-3 * (1 + std::fabs(ref_model[i])))
        << "element " << i;
  }

  // Training reduced the loss vs the zero model.
  std::vector<double> zero(ref_model.size(), 0.0);
  std::vector<double> trained(report.final_models[0].begin(),
                              report.final_models[0].end());
  EXPECT_LT(ref.Loss(f.data, trained), ref.Loss(f.data, zero));
}

INSTANTIATE_TEST_SUITE_P(
    Algos, AcceleratorAlgoTest,
    ::testing::Values(ml::AlgoKind::kLinearRegression,
                      ml::AlgoKind::kLogisticRegression, ml::AlgoKind::kSvm,
                      ml::AlgoKind::kLowRankMF));

TEST(AcceleratorTest, StriderBypassIsSlower) {
  auto f = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 16,
                              2000);
  f.pool->Prewarm(*f.table);
  auto with = f.Train();
  f.pool->Clear();
  f.pool->Prewarm(*f.table);
  accel::RunOptions bypass;
  bypass.strider_bypass = true;
  auto without = f.Train(bypass);
  EXPECT_GT(without.total_time.nanos(), with.total_time.nanos() * 1.5)
      << "CPU-side extraction should cost far more than Striders";
  // Both train the same model regardless of the data path.
  EXPECT_EQ(with.final_models[0], without.final_models[0]);
}

TEST(AcceleratorTest, BandwidthScalingMonotonic) {
  auto f = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 16,
                              4000);
  f.pool->Prewarm(*f.table);
  std::vector<double> times;
  for (double bw : {0.25, 1.0, 4.0}) {
    accel::RunOptions opt;
    opt.bandwidth_scale = bw;
    f.pool->Clear();
    f.pool->Prewarm(*f.table);
    times.push_back(f.Train(opt).fpga_time.nanos());
  }
  EXPECT_GE(times[0], times[1]);
  EXPECT_GE(times[1], times[2]);
}

TEST(AcceleratorTest, ColdCacheAddsIoTime) {
  auto f = AccelFixture::Make(ml::AlgoKind::kLinearRegression, 32, 8, 4000);
  f.pool->Prewarm(*f.table);
  auto warm = f.Train();
  EXPECT_EQ(warm.io_time.nanos(), 0.0);
  f.pool->Clear();
  auto cold = f.Train();
  EXPECT_GT(cold.io_time.nanos(), 0.0);
  EXPECT_GE(cold.total_time.nanos(), warm.total_time.nanos());
}

/// A 200-tuple linear regression whose program tests convergence on the
/// merged-gradient norm (`convergence_norm` 0.5) with a 50-epoch budget.
AccelFixture ConvergingFixture() {
  AccelFixture f;
  f.kind = ml::AlgoKind::kLinearRegression;
  f.params = Params(8, 4, f.kind);
  f.params.epochs = 50;
  f.params.convergence_norm = 0.5;
  ml::DatasetSpec spec;
  spec.kind = f.kind;
  spec.dims = 8;
  spec.tuples = 200;
  spec.label_noise = 0.0;
  f.data = ml::GenerateDataset(spec);
  storage::PageLayout layout;
  f.table = std::move(ml::BuildTable("t", f.data, layout)).ValueOrDie();
  f.pool = std::make_unique<storage::BufferPool>(64ull << 20, 32 * 1024,
                                                 storage::DiskModel{});

  auto algo = std::move(ml::BuildAlgo(f.kind, f.params)).ValueOrDie();
  compiler::WorkloadShape shape;
  shape.num_tuples = f.table->num_tuples();
  shape.num_pages = f.table->num_pages();
  shape.tuples_per_page = f.table->TuplesOnPage(0);
  shape.tuple_payload_bytes = f.table->schema().RowBytes();
  compiler::UdfCompiler compiler{compiler::FpgaSpec{}};
  f.udf = std::move(compiler.Compile(*algo, layout, shape)).ValueOrDie();
  return f;
}

TEST(AcceleratorTest, ConvergenceStopsEarly) {
  AccelFixture f = ConvergingFixture();
  ASSERT_TRUE(f.udf.program.has_convergence);
  accel::Accelerator acc(f.udf);
  auto report = std::move(acc.Train(*f.table, f.pool.get(), {})).ValueOrDie();
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.epochs_run, 50u);
}

TEST(AcceleratorTest, TimingOnlyRunRefusesAConvergenceTest) {
  // Where the run stops depends on trained values, so a timing-only run
  // could only report a wrong time: it fails before fetching a page.
  AccelFixture f = ConvergingFixture();
  accel::Accelerator acc(f.udf);
  auto timed = acc.Time(*f.table, f.pool.get(), {});
  ASSERT_FALSE(timed.ok());
  EXPECT_TRUE(timed.status().IsFailedPrecondition())
      << timed.status().ToString();
  EXPECT_EQ(f.pool->stats().misses + f.pool->stats().hits, 0u);
  // Train still converges early on the same program.
  auto trained = std::move(acc.Train(*f.table, f.pool.get(), {})).ValueOrDie();
  EXPECT_TRUE(trained.converged);
  EXPECT_LT(trained.epochs_run, 50u);
}

TEST(AcceleratorTest, TimingOnlyRunMatchesTrainBitForBit) {
  // Train and Time share one epoch loop: every time and count agrees, in
  // the Strider and bypass pipelines, cold and warm, batched or not. Only
  // Train reads a model back.
  auto f = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 16,
                              2000);
  for (bool bypass : {false, true}) {
    for (bool warm : {false, true}) {
      for (uint32_t batch : {1u, 3u}) {
        SCOPED_TRACE(std::to_string(bypass) + std::to_string(warm) +
                     std::to_string(batch));
        accel::RunOptions opt;
        opt.strider_bypass = bypass;
        opt.batch_queries = batch;
        opt.initial_models = {ml::InitialModel(f.kind, f.params)};
        accel::Accelerator acc(f.udf);
        f.pool->Clear();
        if (warm) f.pool->Prewarm(*f.table);
        auto trained =
            std::move(acc.Train(*f.table, f.pool.get(), opt)).ValueOrDie();
        f.pool->Clear();
        if (warm) f.pool->Prewarm(*f.table);
        auto timed =
            std::move(acc.Time(*f.table, f.pool.get(), opt)).ValueOrDie();
        EXPECT_EQ(timed.epochs_run, trained.epochs_run);
        EXPECT_EQ(timed.tuples_processed, trained.tuples_processed);
        EXPECT_EQ(timed.fpga_cycles, trained.fpga_cycles);
        EXPECT_EQ(timed.total_time.nanos(), trained.total_time.nanos());
        EXPECT_EQ(timed.io_time.nanos(), trained.io_time.nanos());
        EXPECT_EQ(timed.fpga_time.nanos(), trained.fpga_time.nanos());
        EXPECT_EQ(timed.shared_time.nanos(), trained.shared_time.nanos());
        EXPECT_EQ(timed.per_query_time.nanos(),
                  trained.per_query_time.nanos());
        ASSERT_EQ(timed.epochs.size(), trained.epochs.size());
        for (size_t e = 0; e < timed.epochs.size(); ++e) {
          EXPECT_EQ(timed.epochs[e].wall.nanos(),
                    trained.epochs[e].wall.nanos());
          EXPECT_EQ(timed.epochs[e].engine.nanos(),
                    trained.epochs[e].engine.nanos());
        }
        EXPECT_TRUE(timed.final_models.empty());
        EXPECT_EQ(trained.final_models.size(), 1u);
      }
    }
  }
}

TEST(AcceleratorTest, SharedPageImagesTimeLikePrivateOnes) {
  // A shape table's full pages share one image, which Time walks once and
  // reuses; the same zero rows stored one image per page are walked page
  // by page. Every time and count must agree, warm and cold.
  auto f = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 16,
                              2000);
  ml::DatasetSpec spec;
  spec.kind = f.kind;
  spec.dims = 54;
  spec.tuples = 2000;
  storage::PageLayout layout;
  auto shared = std::move(ml::BuildShapeTable("z", spec, layout)).ValueOrDie();
  storage::Table private_pages("z", shared->schema(), layout);
  const std::vector<double> zeros(shared->schema().num_columns(), 0.0);
  for (uint64_t i = 0; i < spec.tuples; ++i) {
    ASSERT_TRUE(private_pages.AppendRow(zeros).ok());
  }
  ASSERT_GT(shared->num_pages(), 2u);
  ASSERT_EQ(shared->num_pages(), private_pages.num_pages());
  ASSERT_EQ(shared->PageData(1), shared->PageData(0));
  ASSERT_NE(private_pages.PageData(1), private_pages.PageData(0));

  accel::Accelerator acc(f.udf);
  for (bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    auto time = [&](const storage::Table& table) {
      f.pool->Clear();
      if (warm) f.pool->Prewarm(table);
      return std::move(acc.Time(table, f.pool.get(), {})).ValueOrDie();
    };
    const accel::RunReport a = time(*shared);
    const accel::RunReport b = time(private_pages);
    EXPECT_EQ(a.tuples_processed, a.epochs_run * spec.tuples);
    EXPECT_EQ(a.epochs_run, b.epochs_run);
    EXPECT_EQ(a.tuples_processed, b.tuples_processed);
    EXPECT_EQ(a.fpga_cycles, b.fpga_cycles);
    EXPECT_EQ(a.total_time.nanos(), b.total_time.nanos());
    EXPECT_EQ(a.io_time.nanos(), b.io_time.nanos());
    EXPECT_EQ(a.fpga_time.nanos(), b.fpga_time.nanos());
    EXPECT_EQ(a.shared_time.nanos(), b.shared_time.nanos());
    EXPECT_EQ(a.per_query_time.nanos(), b.per_query_time.nanos());
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (size_t e = 0; e < a.epochs.size(); ++e) {
      const accel::EpochBreakdown& x = a.epochs[e];
      const accel::EpochBreakdown& y = b.epochs[e];
      EXPECT_EQ(x.io.nanos(), y.io.nanos()) << "epoch " << e;
      EXPECT_EQ(x.axi.nanos(), y.axi.nanos()) << "epoch " << e;
      EXPECT_EQ(x.strider.nanos(), y.strider.nanos()) << "epoch " << e;
      EXPECT_EQ(x.engine.nanos(), y.engine.nanos()) << "epoch " << e;
      EXPECT_EQ(x.wall.nanos(), y.wall.nanos()) << "epoch " << e;
      EXPECT_EQ(x.shared.nanos(), y.shared.nanos()) << "epoch " << e;
      EXPECT_EQ(x.per_query.nanos(), y.per_query.nanos()) << "epoch " << e;
    }
  }
}

TEST(AcceleratorTest, TimingOnlyRunStillChecksTupleSize) {
  // A table whose rows are narrower than the program's tuple is corrupt
  // for Time exactly as for Train.
  auto f = AccelFixture::Make(ml::AlgoKind::kLinearRegression, 16, 4, 64);
  ml::DatasetSpec narrow;
  narrow.dims = 8;
  narrow.tuples = 64;
  storage::PageLayout layout;
  auto table =
      std::move(ml::BuildShapeTable("narrow", narrow, layout)).ValueOrDie();
  accel::Accelerator acc(f.udf);
  auto timed = acc.Time(*table, f.pool.get(), {});
  ASSERT_FALSE(timed.ok());
  EXPECT_TRUE(timed.status().IsCorruption()) << timed.status().ToString();
  auto trained = acc.Train(*table, f.pool.get(), {});
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.status().ToString(), timed.status().ToString());
}

TEST(AcceleratorTest, InitialModelRespected) {
  auto f = AccelFixture::Make(ml::AlgoKind::kLinearRegression, 8, 1, 4);
  accel::RunOptions opt;
  opt.initial_models = {std::vector<float>(8, 2.0f)};
  opt.max_epochs_override = 1;
  auto report = f.Train(opt);
  // With a nonzero start the result differs from the zero start.
  auto zero_report = f.Train();
  EXPECT_NE(report.final_models[0], zero_report.final_models[0]);
}

TEST(AcceleratorTest, BatchedPassSharesStreamAndScalesEngine) {
  auto f = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 16,
                              2000);
  f.pool->Prewarm(*f.table);
  auto single = f.Train();
  f.pool->Clear();
  f.pool->Prewarm(*f.table);
  accel::RunOptions batched;
  batched.batch_queries = 4;
  auto four = f.Train(batched);

  ASSERT_EQ(single.epochs_run, four.epochs_run);
  for (size_t e = 0; e < single.epochs.size(); ++e) {
    // One page-streaming sweep regardless of batch size...
    EXPECT_DOUBLE_EQ(four.epochs[e].axi.nanos(), single.epochs[e].axi.nanos());
    EXPECT_DOUBLE_EQ(four.epochs[e].strider.nanos(),
                     single.epochs[e].strider.nanos());
    EXPECT_DOUBLE_EQ(four.epochs[e].shared.nanos(),
                     single.epochs[e].shared.nanos());
    // ...while engine compute replicates per co-trained model.
    EXPECT_NEAR(four.epochs[e].engine.nanos(),
                4.0 * single.epochs[e].engine.nanos(),
                1e-6 * four.epochs[e].engine.nanos());
    EXPECT_NEAR(four.epochs[e].per_query.nanos(),
                single.epochs[e].engine.nanos(),
                1e-6 * single.epochs[e].engine.nanos());
  }
  // Batch service beats 4 serial passes: stream + 4x engine, pipelined,
  // is far below 4 x (stream + engine).
  EXPECT_LT(four.total_time.nanos(), 4.0 * single.total_time.nanos());
  // All four co-trained models are the one functionally-trained model.
  EXPECT_EQ(four.final_models[0], single.final_models[0]);
}

TEST(AcceleratorTest, EpochBreakdownSumsConsistently) {
  auto f = AccelFixture::Make(ml::AlgoKind::kSvm, 20, 8, 1000);
  f.pool->Prewarm(*f.table);
  auto report = f.Train();
  ASSERT_EQ(report.epochs.size(), report.epochs_run);
  dana::SimTime sum;
  for (const auto& e : report.epochs) {
    EXPECT_GE(e.wall.nanos(), 0.0);
    sum += e.wall;
  }
  EXPECT_NEAR(sum.nanos(), report.total_time.nanos(),
              1e-6 * report.total_time.nanos() + 1.0);
}

TEST(AcceleratorTest, MoreThreadsFasterOnWideParallelWorkload) {
  compiler::HardwareGenerator::Options one;
  one.force_threads = 1;
  compiler::HardwareGenerator::Options many;
  many.force_threads = 16;
  auto f1 = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 64,
                               3000, one);
  auto f16 = AccelFixture::Make(ml::AlgoKind::kLogisticRegression, 54, 64,
                                3000, many);
  f1.pool->Prewarm(*f1.table);
  f16.pool->Prewarm(*f16.table);
  // Compare engine compute only (narrow model: extraction is the same).
  auto r1 = f1.Train();
  auto r16 = f16.Train();
  dana::SimTime e1, e16;
  for (const auto& e : r1.epochs) e1 += e.engine;
  for (const auto& e : r16.epochs) e16 += e.engine;
  EXPECT_LT(e16.nanos(), e1.nanos());
}

}  // namespace
}  // namespace dana
