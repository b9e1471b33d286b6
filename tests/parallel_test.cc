#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

// The threaded host code beside the dataset generator: the worker pool and
// its one team per process, the evaluator's parallel batches and the
// reference loss. Each result must be the same bit for bit whatever the
// worker count, so each case runs once while this thread holds the team
// (every lease the code takes has width 1: everything on the calling
// thread) and once with the team free.

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

TEST(WorkerPoolDeathTest, RunningMoreWorkersThanThePoolHasDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  WorkerPool pool(1);
  EXPECT_DEATH(pool.Run(2, [](uint32_t) {}),
               "2 workers asked of a pool of 1");
}

// ---------------------------------------------------------------------------
// TeamLease
// ---------------------------------------------------------------------------

TEST(TeamLeaseTest, OneLeaseHoldsTheTeamAndJobsRunAlone) {
  const uint32_t size = TeamLease(UINT32_MAX).width();
  EXPECT_EQ(TeamLease(2).width(), std::min(size, 2u));
  {
    // Wanting one worker leaves the team free.
    const TeamLease solo(1);
    EXPECT_EQ(solo.width(), 1u);
    EXPECT_EQ(TeamLease(UINT32_MAX).width(), size);
  }
  TeamLease team(UINT32_MAX);
  ASSERT_EQ(team.width(), size);
  EXPECT_EQ(TeamLease(2).width(), 1u);
  std::vector<uint32_t> nested(team.width(), 0);
  team.Run(team.width(),
           [&](uint32_t w) { nested[w] = TeamLease(2).width(); });
  for (uint32_t w = 0; w < team.width(); ++w) {
    EXPECT_EQ(nested[w], 1u) << "worker " << w;
  }
}

/// fn() while this thread holds the team: every lease fn takes has width
/// 1, so fn runs on this thread alone.
template <typename F>
auto OnOneWorker(F&& fn) {
  const TeamLease held(2);
  EXPECT_EQ(TeamLease(2).width(), 1u);
  return fn();
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

void ExpectSameBits(const Trained& one, const Trained& all) {
  ASSERT_EQ(one.model.size(), all.model.size());
  EXPECT_EQ(std::memcmp(one.model.data(), all.model.data(),
                        sizeof(float) * one.model.size()),
            0);
  EXPECT_EQ(one.ops, all.ops);
}

class EvalThreadCount : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalThreadCount, ModelBitsDoNotDependOnTheThreadCount) {
  const Trained one = OnOneWorker([&] { return Train(GetParam()); });
  ExpectSameBits(one, Train(GetParam()));
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

/// A model of `kind` and a dataset to compute its loss on.
struct LossInput {
  ml::AlgoParams params;
  ml::Dataset data;
  std::vector<double> model;
};

LossInput MakeLossInput(ml::AlgoKind kind) {
  LossInput in;
  in.params.dims = kind == ml::AlgoKind::kLowRankMF ? 450 : 2000;
  in.params.rank = 10;
  ml::DatasetSpec spec;
  spec.kind = kind;
  spec.dims = in.params.dims;
  spec.rank = in.params.rank;
  // Enough rows for every CPU, and for LRMF several steps of terms. (At
  // 300 rows, summing per-worker partial sums happened to give the linear
  // loss's bits too.)
  spec.tuples = 1000;
  spec.seed = 5;
  in.data = ml::GenerateDataset(spec);
  in.model.resize(kind == ml::AlgoKind::kLowRankMF
                      ? size_t{in.params.dims} * in.params.rank
                      : in.params.dims);
  Rng rng(17);
  for (double& v : in.model) v = rng.Uniform(-0.1, 0.1);
  return in;
}

class LossThreadCount : public ::testing::TestWithParam<ml::AlgoKind> {};

TEST_P(LossThreadCount, LossBitsDoNotDependOnTheThreadCount) {
  const LossInput in = MakeLossInput(GetParam());
  const ml::ReferenceTrainer trainer(GetParam(), in.params);
  const double one =
      OnOneWorker([&] { return trainer.Loss(in.data, in.model); });
  const double all = trainer.Loss(in.data, in.model);
  EXPECT_EQ(std::memcmp(&one, &all, sizeof(double)), 0)
      << "one worker " << one << ", the team " << all;
  EXPECT_GT(all, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, LossThreadCount,
                         ::testing::Values(ml::AlgoKind::kLinearRegression,
                                           ml::AlgoKind::kLogisticRegression,
                                           ml::AlgoKind::kSvm,
                                           ml::AlgoKind::kLowRankMF));

// ---------------------------------------------------------------------------
// Contention and nesting
// ---------------------------------------------------------------------------

void ExpectSameBits(const ml::Dataset& one, const ml::Dataset& all) {
  ASSERT_EQ(one.rows.size(), all.rows.size());
  for (size_t r = 0; r < one.rows.size(); ++r) {
    ASSERT_EQ(one.rows[r].size(), all.rows[r].size());
    ASSERT_EQ(std::memcmp(one.rows[r].data(), all.rows[r].data(),
                          sizeof(double) * one.rows[r].size()),
              0)
        << "row " << r;
  }
}

/// Four threads train a large program and compute a loss at once, so the
/// team goes to one of them at a time and the rest run alone; a dataset is
/// generated inside a team job. Every result equals the one-worker result
/// bit for bit.
TEST(TeamContentionTest, ConcurrentAndNestedCallsMatchOneWorker) {
  const EvalCase eval{ml::AlgoKind::kSvm, 1740, 10, 64};
  const LossInput in = MakeLossInput(ml::AlgoKind::kLowRankMF);
  const ml::ReferenceTrainer trainer(ml::AlgoKind::kLowRankMF, in.params);
  ml::DatasetSpec spec;
  spec.kind = ml::AlgoKind::kLinearRegression;
  spec.dims = 2000;
  spec.tuples = 1000;  // 32 blocks of rows
  spec.seed = 23;
  const Trained one_model = OnOneWorker([&] { return Train(eval); });
  const double one_loss =
      OnOneWorker([&] { return trainer.Loss(in.data, in.model); });
  const ml::Dataset one_data =
      OnOneWorker([&] { return ml::GenerateDataset(spec); });

  ml::Dataset nested;
  {
    TeamLease team(2);
    team.Run(team.width(), [&](uint32_t w) {
      if (w + 1 < team.width()) return;  // the last worker generates
      EXPECT_EQ(TeamLease(2).width(), 1u);
      nested = ml::GenerateDataset(spec);
    });
  }
  ExpectSameBits(one_data, nested);

  constexpr int kThreads = 4;
  std::vector<Trained> models(kThreads);
  std::vector<double> losses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half train first and half compute the loss first.
      if (t % 2 == 0) models[t] = Train(eval);
      losses[t] = trainer.Loss(in.data, in.model);
      if (t % 2 == 1) models[t] = Train(eval);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ExpectSameBits(one_model, models[t]);
    EXPECT_EQ(std::memcmp(&one_loss, &losses[t], sizeof(double)), 0);
  }
}

}  // namespace
}  // namespace dana
