#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "compiler/scalar_program.h"
#include "engine/evaluator.h"
#include "hdfg/translator.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "ml/reference.h"
#include "support/affinity.h"

// The threaded host code beside the dataset generator: the worker pool, the
// evaluator's parallel batches and the reference loss. Each result must be
// the same bit for bit whatever the thread count, so each case runs once
// with this thread's affinity narrowed to one CPU (everything on the
// calling thread) and once with the full mask.

namespace dana {
namespace ml {

void PrintTo(AlgoKind kind, std::ostream* os) { *os << AlgoKindName(kind); }

}  // namespace ml

namespace {

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEachWorkerOnceAndPublishesItsWrites) {
  WorkerPool pool(4);
  ASSERT_GE(pool.size(), 1u);
  ASSERT_LE(pool.size(), 4u);
  for (uint32_t n = 0; n <= pool.size(); ++n) {
    std::vector<uint32_t> runs(pool.size(), 0);
    pool.Run(n, [&](uint32_t w) { ++runs[w]; });
    for (uint32_t w = 0; w < pool.size(); ++w) {
      EXPECT_EQ(runs[w], w < n ? 1u : 0u) << "n " << n << " worker " << w;
    }
  }
}

TEST(WorkerPoolTest, CallerIsWorkerZero) {
  WorkerPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(pool.size());
  pool.Run(pool.size(),
           [&](uint32_t w) { ids[w] = std::this_thread::get_id(); });
  EXPECT_EQ(ids[0], caller);
  for (uint32_t w = 1; w < pool.size(); ++w) EXPECT_NE(ids[w], caller);
}

TEST(WorkerPoolTest, OneWorkerRunsOnTheCaller) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Run(1, [&](uint32_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

// ---------------------------------------------------------------------------
// ScalarEvaluator::EvalBatch
// ---------------------------------------------------------------------------

struct EvalCase {
  ml::AlgoKind kind;
  uint32_t dims;
  uint32_t rank;
  uint32_t coef;
};

void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << ml::AlgoKindName(c.kind) << " dims " << c.dims << " merge_coef "
      << c.coef;
}

struct Trained {
  std::vector<float> model;
  uint64_t ops = 0;
};

/// Trains `c`'s program through EvalBatch on batches of coef, coef, 3 and
/// coef + 5 tuples (a ragged batch, and one larger than merge_coef).
Trained Train(const EvalCase& c) {
  ml::AlgoParams p;
  p.dims = c.dims;
  p.rank = c.rank;
  p.merge_coef = c.coef;
  p.learning_rate = c.kind == ml::AlgoKind::kLowRankMF ? 0.5 : 0.3;
  auto algo = std::move(ml::BuildAlgo(c.kind, p)).ValueOrDie();
  auto graph = std::move(hdfg::Translator::Translate(*algo)).ValueOrDie();
  const compiler::ScalarProgram prog =
      std::move(compiler::LowerGraph(graph)).ValueOrDie();
  EXPECT_GE(prog.tuple_ops.size(),
            engine::ScalarEvaluator::kParallelTupleOps);

  const std::vector<size_t> sizes = {c.coef, c.coef, 3, c.coef + 5};
  ml::DatasetSpec spec;
  spec.kind = c.kind;
  spec.dims = c.dims;
  spec.rank = c.rank;
  spec.seed = 11;
  spec.tuples = 0;
  for (size_t n : sizes) spec.tuples += n;
  const ml::Dataset data = ml::GenerateDataset(spec);

  engine::ScalarEvaluator ev(prog);
  EXPECT_TRUE(ev.SetModel(0, ml::InitialModel(c.kind, p)).ok());
  size_t next = 0;
  for (size_t n : sizes) {
    std::vector<engine::TupleData> batch(n);
    for (engine::TupleData& t : batch) {
      const std::vector<double>& row = data.rows[next++];
      t.inputs = {std::vector<float>(row.begin(), row.begin() + c.dims)};
      if (!prog.output_vars.empty()) {
        t.outputs = {{static_cast<float>(row[c.dims])}};
      }
    }
    EXPECT_TRUE(ev.EvalBatch(batch).ok());
  }
  return {ev.Model(0), ev.ops_executed()};
}

class EvalThreadCount : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalThreadCount, ModelBitsDoNotDependOnTheThreadCount) {
  const Trained one = OnOneCpu([&] { return Train(GetParam()); });
  const Trained all = Train(GetParam());
  ASSERT_EQ(one.model.size(), all.model.size());
  EXPECT_EQ(std::memcmp(one.model.data(), all.model.data(),
                        sizeof(float) * one.model.size()),
            0);
  EXPECT_EQ(one.ops, all.ops);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, EvalThreadCount,
    ::testing::Values(
        EvalCase{ml::AlgoKind::kLogisticRegression, 8000, 10, 64},
        EvalCase{ml::AlgoKind::kSvm, 1740, 10, 64},
        EvalCase{ml::AlgoKind::kLowRankMF, 450, 10, 4}));

// ---------------------------------------------------------------------------
// ReferenceTrainer::Loss
// ---------------------------------------------------------------------------

class LossThreadCount : public ::testing::TestWithParam<ml::AlgoKind> {};

TEST_P(LossThreadCount, LossBitsDoNotDependOnTheThreadCount) {
  const ml::AlgoKind kind = GetParam();
  ml::AlgoParams p;
  p.dims = kind == ml::AlgoKind::kLowRankMF ? 450 : 2000;
  p.rank = 10;
  ml::DatasetSpec spec;
  spec.kind = kind;
  spec.dims = p.dims;
  spec.rank = p.rank;
  // Enough rows for every CPU, and for LRMF several steps of terms. (At
  // 300 rows, summing per-worker partial sums happened to give the linear
  // loss's bits too.)
  spec.tuples = 1000;
  spec.seed = 5;
  const ml::Dataset data = ml::GenerateDataset(spec);
  std::vector<double> model(kind == ml::AlgoKind::kLowRankMF
                                ? size_t{p.dims} * p.rank
                                : p.dims);
  Rng rng(17);
  for (double& v : model) v = rng.Uniform(-0.1, 0.1);

  const ml::ReferenceTrainer trainer(kind, p);
  const double one = OnOneCpu([&] { return trainer.Loss(data, model); });
  const double all = trainer.Loss(data, model);
  EXPECT_EQ(std::memcmp(&one, &all, sizeof(double)), 0)
      << "one CPU " << one << ", all CPUs " << all;
  EXPECT_GT(all, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, LossThreadCount,
                         ::testing::Values(ml::AlgoKind::kLinearRegression,
                                           ml::AlgoKind::kLogisticRegression,
                                           ml::AlgoKind::kSvm,
                                           ml::AlgoKind::kLowRankMF));

}  // namespace
}  // namespace dana
