#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "compiler/serialization.h"
#include "ml/workloads.h"
#include "runtime/cost_model.h"
#include "runtime/query.h"
#include "runtime/systems.h"
#include "storage/page.h"

namespace dana::runtime {
namespace {

// ---------------------------------------------------------------------------
// Workload catalog (Table 3)
// ---------------------------------------------------------------------------

TEST(WorkloadsTest, FourteenWorkloadsInPaperGroups) {
  EXPECT_EQ(ml::AllWorkloads().size(), 14u);
  EXPECT_EQ(ml::PublicWorkloads().size(), 6u);
  EXPECT_EQ(ml::SyntheticNominalWorkloads().size(), 4u);
  EXPECT_EQ(ml::SyntheticExtensiveWorkloads().size(), 4u);
}

TEST(WorkloadsTest, LookupById) {
  const ml::Workload* w = ml::FindWorkload("rs_lr");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->display_name, "Remote Sensing LR");
  EXPECT_EQ(w->kind, ml::AlgoKind::kLogisticRegression);
  EXPECT_EQ(w->params.dims, 54u);
  EXPECT_EQ(ml::FindWorkload("nope"), nullptr);
}

TEST(WorkloadsTest, ScaleReflectsPaperElements) {
  for (const auto& w : ml::AllWorkloads()) {
    EXPECT_GT(w.scale, 0.99) << w.id;
    // Element-based virtual scaling: generated elements x scale == paper
    // elements (tuples x width).
    const double paper_elems =
        static_cast<double>(w.paper.tuples) * w.paper_dims;
    const double our_elems =
        static_cast<double>(w.tuples) * w.params.dims;
    EXPECT_NEAR(w.scale * our_elems, paper_elems, paper_elems * 0.01)
        << w.id;
    EXPECT_GT(w.paper.dana_speedup_warm, 0.0) << w.id;
    EXPECT_GT(w.assumed_epochs, 0u) << w.id;
    EXPECT_GT(w.dana_epochs, 0u) << w.id;
  }
}

TEST(WorkloadsTest, TuplePayloadMatchesKind) {
  const ml::Workload* netflix = ml::FindWorkload("netflix");
  ASSERT_NE(netflix, nullptr);
  EXPECT_EQ(netflix->TuplePayloadBytes(), netflix->params.dims * 4);
  const ml::Workload* blog = ml::FindWorkload("blog");
  EXPECT_EQ(blog->TuplePayloadBytes(), (blog->params.dims + 1) * 4);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, LogisticCostlierThanLinearPerFlop) {
  CpuCostModel cm;
  EXPECT_GT(cm.MadlibNsPerFlop(ml::AlgoKind::kLogisticRegression),
            cm.MadlibNsPerFlop(ml::AlgoKind::kLinearRegression));
}

TEST(CostModelTest, TupleTimeGrowsWithWidth) {
  CpuCostModel cm;
  ml::AlgoParams narrow, wide;
  narrow.dims = 10;
  wide.dims = 1000;
  EXPECT_GT(
      cm.MadlibTupleTime(ml::AlgoKind::kSvm, wide).nanos(),
      cm.MadlibTupleTime(ml::AlgoKind::kSvm, narrow).nanos() * 10);
}

TEST(CostModelTest, GreenplumSegmentCurvePeaksAt8) {
  EXPECT_LT(GreenplumModel::SegmentCurve(4), 1.0);
  EXPECT_DOUBLE_EQ(GreenplumModel::SegmentCurve(8), 1.0);
  EXPECT_LT(GreenplumModel::SegmentCurve(16), 1.0);
}

// ---------------------------------------------------------------------------
// Systems on a small real workload
// ---------------------------------------------------------------------------

class SystemsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ml::Workload* w = ml::FindWorkload("rs_lr");
    ASSERT_NE(w, nullptr);
    ml::Workload scaled = *w;
    scaled.tuples = 3000;  // shrink further for test speed
    scaled.scale = static_cast<double>(w->paper.tuples) / scaled.tuples;
    instance_ = std::move(WorkloadInstance::Create(scaled)).ValueOrDie()
                    .release();
  }
  static void TearDownTestSuite() {
    delete instance_;
    instance_ = nullptr;
  }
  static WorkloadInstance* instance_;
};

WorkloadInstance* SystemsTest::instance_ = nullptr;

TEST_F(SystemsTest, DanaBeatsMadlibWarm) {
  CpuCostModel cm;
  MadlibPostgres pg(cm);
  DanaSystem dana(cm);
  auto pg_r = std::move(pg.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto da_r = std::move(dana.Run(instance_, CacheState::kWarm)).ValueOrDie();
  EXPECT_GT(pg_r.total / da_r.total, 4.0)
      << "paper reports 28.2x on Remote Sensing LR";
  EXPECT_LT(pg_r.total / da_r.total, 120.0);
}

TEST_F(SystemsTest, ColdCacheShrinksAdvantage) {
  CpuCostModel cm;
  MadlibPostgres pg(cm);
  DanaSystem dana(cm);
  auto pg_w = std::move(pg.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto da_w = std::move(dana.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto pg_c = std::move(pg.Run(instance_, CacheState::kCold)).ValueOrDie();
  auto da_c = std::move(dana.Run(instance_, CacheState::kCold)).ValueOrDie();
  EXPECT_GT(pg_c.total.nanos(), pg_w.total.nanos());
  EXPECT_GT(da_c.total.nanos(), da_w.total.nanos());
  EXPECT_LT(pg_c.total / da_c.total, pg_w.total / da_w.total);
}

TEST_F(SystemsTest, GreenplumBetween) {
  CpuCostModel cm;
  MadlibPostgres pg(cm);
  MadlibGreenplum gp(cm, 8);
  DanaSystem dana(cm);
  auto pg_r = std::move(pg.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto gp_r = std::move(gp.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto da_r = std::move(dana.Run(instance_, CacheState::kWarm)).ValueOrDie();
  EXPECT_LT(gp_r.total.nanos(), pg_r.total.nanos());
  EXPECT_LT(da_r.total.nanos(), gp_r.total.nanos());
}

TEST_F(SystemsTest, AllSystemsTrainEquivalentModels) {
  CpuCostModel cm;
  MadlibPostgres pg(cm);
  DanaSystem dana(cm);
  auto pg_r = std::move(pg.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto da_r = std::move(dana.Run(instance_, CacheState::kWarm)).ValueOrDie();
  ASSERT_EQ(pg_r.model.size(), da_r.model.size());
  // Same loss neighbourhood (fp32 vs fp64 training).
  EXPECT_NEAR(pg_r.loss, da_r.loss, 0.05 * (1.0 + pg_r.loss));
}

TEST_F(SystemsTest, ExternalLibraryDominatedByExport) {
  CpuCostModel cm;
  ExternalLibrary lib(cm, "Liblinear", 2.9);
  auto phases = std::move(lib.Run(instance_)).ValueOrDie();
  EXPECT_GT(phases.export_time.nanos(), phases.transform_time.nanos());
  EXPECT_GT(phases.export_time / phases.Total(), 0.5)
      << "Fig 15a shows export dominating";
}

TEST_F(SystemsTest, TablaSlowerThanDana) {
  CpuCostModel cm;
  DanaSystem dana(cm);
  TablaSystem tabla(cm, DefaultFpga());
  auto da_r = std::move(dana.Run(instance_, CacheState::kWarm)).ValueOrDie();
  auto tb = std::move(tabla.ComputeTimePerEpoch(instance_)).ValueOrDie();
  const dana::SimTime dana_per_epoch =
      da_r.compute / std::max<uint32_t>(da_r.epochs, 1);
  EXPECT_GT(tb.nanos(), dana_per_epoch.nanos());
}

TEST_F(SystemsTest, RepeatedColdRunsAreEquivalent) {
  CpuCostModel cm;
  DanaSystem dana(cm);
  auto udf = std::move(dana.Compile(*instance_)).ValueOrDie();

  // Each run prepares the instance's one pool to its cache state first, so
  // a second run from the same cold state repeats the first exactly: same
  // times, same trained model, same pool misses.
  auto first = std::move(dana.RunCompiled(udf, instance_, CacheState::kCold))
                   .ValueOrDie();
  const storage::BufferPoolStats first_stats = instance_->PoolStatsRollup();
  EXPECT_GT(first_stats.misses, 0u);
  auto second = std::move(dana.RunCompiled(udf, instance_, CacheState::kCold))
                    .ValueOrDie();
  EXPECT_DOUBLE_EQ(second.total.nanos(), first.total.nanos());
  EXPECT_DOUBLE_EQ(second.io.nanos(), first.io.nanos());
  EXPECT_EQ(second.model, first.model);
  EXPECT_EQ(instance_->PoolStatsRollup().misses, first_stats.misses);
  EXPECT_EQ(first.batch_queries, 1u);
}

TEST_F(SystemsTest, BatchedRunAmortizesSharedStream) {
  CpuCostModel cm;
  DanaSystem dana(cm);
  auto udf = std::move(dana.Compile(*instance_)).ValueOrDie();
  auto one = std::move(dana.RunCompiled(udf, instance_, CacheState::kWarm))
                 .ValueOrDie();
  auto four = std::move(dana.RunCompiled(udf, instance_, CacheState::kWarm,
                                         /*batch_queries=*/4))
                  .ValueOrDie();
  EXPECT_EQ(four.batch_queries, 4u);
  // Four co-trained queries in one pass beat four serial passes...
  EXPECT_LT(four.total.nanos(), 4.0 * one.total.nanos());
  // ...because the stream is paid once: shared attribution matches the
  // single run's, while per-query engine time is per model.
  EXPECT_NEAR(four.shared_time.nanos(), one.shared_time.nanos(),
              1e-6 * one.shared_time.nanos());
  EXPECT_NEAR(four.per_query_time.nanos(), one.per_query_time.nanos(),
              1e-6 * one.per_query_time.nanos() + 1.0);
}

TEST(SystemsSmallTest, SegmentSweepShapesLikeFig13) {
  const ml::Workload* w = ml::FindWorkload("patient");
  ASSERT_NE(w, nullptr);
  ml::Workload scaled = *w;
  scaled.tuples = 1000;
  scaled.scale = static_cast<double>(w->paper.tuples) / scaled.tuples;
  auto instance = std::move(WorkloadInstance::Create(scaled)).ValueOrDie();
  CpuCostModel cm;
  auto t4 = std::move(MadlibGreenplum(cm, 4).Run(instance.get(),
                                                 CacheState::kWarm))
                .ValueOrDie();
  auto t8 = std::move(MadlibGreenplum(cm, 8).Run(instance.get(),
                                                 CacheState::kWarm))
                .ValueOrDie();
  auto t16 = std::move(MadlibGreenplum(cm, 16).Run(instance.get(),
                                                   CacheState::kWarm))
                 .ValueOrDie();
  EXPECT_LE(t8.total.nanos(), t4.total.nanos());
  EXPECT_LE(t8.total.nanos(), t16.total.nanos());
}

// ---------------------------------------------------------------------------
// Shape instances: timing-only runs price like functional ones
// ---------------------------------------------------------------------------

/// Batch sizes the equivalence test runs `w` at: 1-4, or 1 and 4 for the
/// S/E sets, the costliest to train.
std::vector<uint32_t> EquivalenceBatchSizes(const ml::Workload& w) {
  if (w.group == ml::WorkloadGroup::kExtensive) return {1, 4};
  return {1, 2, 3, 4};
}

/// `w`'s shape table lays out its pages exactly like the generated one, and
/// the timing-only pass over it reports RunCompiled's times bit for bit —
/// from every cache state the scheduler's executor prices, at every
/// EquivalenceBatchSizes batch size.
void ExpectShapeTimesEqualFunctional(const DanaSystem& dana,
                                     const ml::Workload& w) {
  SCOPED_TRACE(w.id);
  auto full = std::move(WorkloadInstance::Create(w)).ValueOrDie();
  auto shape = std::move(WorkloadInstance::CreateShape(w)).ValueOrDie();
  const storage::Table& ft = full->table();
  const storage::Table& st = shape->table();
  ASSERT_EQ(st.num_pages(), ft.num_pages());
  ASSERT_EQ(st.num_tuples(), ft.num_tuples());
  ASSERT_EQ(st.schema().RowBytes(), ft.schema().RowBytes());
  for (uint64_t p = 0; p < ft.num_pages(); ++p) {
    // Page header and line-pointer array: bytes [0, lower).
    const storage::Page fp(const_cast<uint8_t*>(ft.PageData(p)), ft.layout());
    const storage::Page sp(const_cast<uint8_t*>(st.PageData(p)), st.layout());
    ASSERT_EQ(sp.lower(), fp.lower()) << "page " << p;
    ASSERT_EQ(std::memcmp(st.PageData(p), ft.PageData(p), fp.lower()), 0)
        << "page " << p;
  }

  auto full_udf = std::move(dana.Compile(*full)).ValueOrDie();
  auto shape_udf = std::move(dana.Compile(*shape)).ValueOrDie();
  for (CacheState cache :
       {CacheState::kCold, CacheState::kOsCached, CacheState::kWarm}) {
    for (uint32_t batch : EquivalenceBatchSizes(w)) {
      SCOPED_TRACE("cache " + std::to_string(static_cast<int>(cache)) +
                   ", batch " + std::to_string(batch));
      auto fr =
          std::move(dana.RunCompiled(full_udf, full.get(), cache, batch))
              .ValueOrDie();
      auto tr =
          std::move(dana.TimeCompiled(shape_udf, shape.get(), cache, batch))
              .ValueOrDie();
      EXPECT_EQ(tr.epochs, fr.epochs);
      EXPECT_EQ(tr.first_epoch.wall.nanos(), fr.first_epoch.wall.nanos());
      EXPECT_EQ(tr.first_epoch.shared.nanos(), fr.first_epoch.shared.nanos());
      EXPECT_EQ(tr.first_epoch.per_query.nanos(),
                fr.first_epoch.per_query.nanos());
      EXPECT_EQ(tr.steady_epoch.wall.nanos(), fr.steady_epoch.wall.nanos());
      EXPECT_EQ(tr.steady_epoch.shared.nanos(),
                fr.steady_epoch.shared.nanos());
      EXPECT_EQ(tr.steady_epoch.per_query.nanos(),
                fr.steady_epoch.per_query.nanos());
      EXPECT_EQ(tr.query_overhead.nanos(), fr.query_overhead.nanos());
      EXPECT_EQ(tr.epoch_overhead.nanos(), fr.epoch_overhead.nanos());
      EXPECT_EQ(tr.total.nanos(), fr.total.nanos());
      EXPECT_EQ(tr.io.nanos(), fr.io.nanos());
      EXPECT_EQ(tr.compute.nanos(), fr.compute.nanos());
      // Timing only: no model, no loss.
      EXPECT_TRUE(tr.model.empty());
      EXPECT_EQ(tr.loss, 0.0);
      EXPECT_FALSE(fr.model.empty());
    }
  }
}

/// Every registry workload, with the DanaSystem options the scheduler's
/// executor prices with (the Table 4 FPGA, two functional epochs). The
/// functional grid is about 18 s of single-core work, so up to four
/// workers of the process's team each take whole workloads, costliest
/// first (generated values times functional runs); each worker owns its
/// instances and shares only the const system. Inside a team job every
/// lease has width 1, so each workload trains on its worker alone.
TEST(ShapeInstanceTest, TimingOnlyEndpointsEqualFunctionalRunsBitForBit) {
  CpuCostModel cm;
  DanaSystem::Options options;
  options.fpga = DefaultFpga();
  options.functional_epoch_cap = 2;
  const DanaSystem dana(cm, options);
  std::vector<const ml::Workload*> order;
  for (const ml::Workload& w : ml::AllWorkloads()) order.push_back(&w);
  const auto cost = [](const ml::Workload* w) {
    return w->tuples * (w->params.dims + 1) * EquivalenceBatchSizes(*w).size();
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const ml::Workload* a, const ml::Workload* b) {
                     return cost(a) > cost(b);
                   });
  std::atomic<size_t> next{0};
  TeamLease team(4);
  team.Run(team.width(), [&](uint32_t) {
    for (size_t i = next++; i < order.size(); i = next++) {
      ExpectShapeTimesEqualFunctional(dana, *order[i]);
    }
  });
}

TEST(ShapeInstanceTest, ShapeInstanceHasNoDataset) {
  // Earlier cases start the worker team, whose threads a forked child lacks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ml::Workload* w = ml::FindWorkload("wlan");
  ASSERT_NE(w, nullptr);
  auto shape = std::move(WorkloadInstance::CreateShape(*w)).ValueOrDie();
  EXPECT_DEATH(shape->dataset(), "has no dataset");
}

// ---------------------------------------------------------------------------
// Query parsing + session
// ---------------------------------------------------------------------------

TEST(QueryParseTest, AcceptsPaperForm) {
  auto q = ParseUdfQuery("SELECT * FROM dana.linearR('training_data');");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->udf_name, "linearR");
  EXPECT_EQ(q->table_name, "training_data");
}

TEST(QueryParseTest, CaseAndWhitespaceInsensitive) {
  auto q = ParseUdfQuery("select  *   from   DANA.svm ( \"t1\" )");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->udf_name, "svm");
  EXPECT_EQ(q->table_name, "t1");
}

TEST(QueryParseTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseUdfQuery("SELECT a FROM dana.f('t')").ok());
  EXPECT_FALSE(ParseUdfQuery("SELECT * FROM public.f('t')").ok());
  EXPECT_FALSE(ParseUdfQuery("SELECT * FROM dana.('t')").ok());
  EXPECT_FALSE(ParseUdfQuery("SELECT * FROM dana.f(t)").ok());
  EXPECT_FALSE(ParseUdfQuery("SELECT * FROM dana.f('t'").ok());
  EXPECT_FALSE(ParseUdfQuery("SELECT * FROM dana.f('')").ok());
  EXPECT_FALSE(ParseUdfQuery("").ok());
}

std::unique_ptr<dsl::Algo> TinyLinear() {
  auto algo = std::make_unique<dsl::Algo>("lin");
  auto mo = algo->Model("mo", {4});
  auto in = algo->Input("in", {4});
  auto out = algo->Output("out");
  auto g = algo->Merge((dsl::Sigma(mo * in, 0) - out) * in, 4,
                       dsl::OpKind::kAdd);
  EXPECT_TRUE(algo->SetModel(mo, mo - 0.1 * g).ok());
  algo->SetEpochs(2);
  return algo;
}

TEST(SessionTest, EndToEndQueryTrainsAndRegistersCatalogMetadata) {
  Session session;
  ml::DatasetSpec spec;
  spec.kind = ml::AlgoKind::kLinearRegression;
  spec.dims = 4;
  spec.tuples = 200;
  auto data = ml::GenerateDataset(spec);
  storage::PageLayout layout;
  ASSERT_TRUE(session.catalog()
                  ->RegisterTable(
                      std::move(ml::BuildTable("t", data, layout)).ValueOrDie())
                  .ok());
  ASSERT_TRUE(session.RegisterUdf(TinyLinear()).ok());

  auto report = session.ExecuteQuery("SELECT * FROM dana.lin('t');");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epochs_run, 2u);
  EXPECT_EQ(report->tuples_processed, 400u);

  // The compiled design landed in the catalog (Figure 2) as a loadable
  // binary: deserializing it yields the same accelerator.
  auto blob = session.catalog()->GetUdfMetadata("lin");
  ASSERT_TRUE(blob.ok());
  auto loaded = compiler::DeserializeUdf(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->udf_name, "lin");
  EXPECT_FALSE(loaded->strider_program.code.empty());

  // Second query reuses the compiled design.
  EXPECT_TRUE(session.ExecuteQuery("SELECT * FROM dana.lin('t')").ok());
}

TEST(SessionTest, UnknownUdfOrTableFail) {
  Session session;
  EXPECT_TRUE(session.ExecuteQuery("SELECT * FROM dana.nope('t')")
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(session.RegisterUdf(TinyLinear()).ok());
  EXPECT_TRUE(session.ExecuteQuery("SELECT * FROM dana.lin('ghost')")
                  .status()
                  .IsNotFound());
}

TEST(SessionTest, DuplicateUdfRejected) {
  Session session;
  ASSERT_TRUE(session.RegisterUdf(TinyLinear()).ok());
  EXPECT_TRUE(session.RegisterUdf(TinyLinear()).IsAlreadyExists());
}

TEST(SessionTest, GetCompiledBeforeQueryIsNotFound) {
  Session session;
  ASSERT_TRUE(session.RegisterUdf(TinyLinear()).ok());
  EXPECT_TRUE(session.GetCompiled("lin").status().IsNotFound());
}

}  // namespace
}  // namespace dana::runtime
