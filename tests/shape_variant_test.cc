// Shape instances priced like functional runs for the non-default designs
// bench_paper prices (runtime_test's ShapeInstanceTest covers the registry
// defaults). A file of its own, so that it runs beside runtime_test rather
// than after it.

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "ml/workloads.h"
#include "runtime/cost_model.h"
#include "runtime/systems.h"

namespace dana::runtime {
namespace {

/// `tr`, a timing-only result, reports the functional run `fr`'s times bit
/// for bit.
void ExpectSameTimes(const SystemResult& tr, const SystemResult& fr) {
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
}

/// The configurations bench_paper prices on shape instances beyond the
/// registry defaults, on rs_lr from a warm pool: 8 and 16 KB pages
/// (page-size study), merge coefficient 16 with forced threads (Figure
/// 12), one page buffer (buffer ablation) and MIMD-only control (SIMD
/// ablation). Each shape timing equals the functional run bit for bit.
TEST(ShapeInstanceTest, FigureVariantsEqualFunctionalRunsBitForBit) {
  const ml::Workload& rs_lr = *ml::FindWorkload("rs_lr");
  struct Variant {
    const char* name;
    uint32_t page_size;
    uint32_t merge_coef;    // also the forced thread count; 0: defaults
    uint32_t page_buffers;  // 0: the compiled design's
    bool mimd_only;
  };
  const Variant kVariants[] = {
      {"8 KB pages", 8 * 1024, 0, 0, false},
      {"16 KB pages", 16 * 1024, 0, 0, false},
      {"merge coef 16 on 16 threads", 32 * 1024, 16, 0, false},
      {"one page buffer", 32 * 1024, 0, 1, false},
      {"MIMD only", 32 * 1024, 0, 0, true},
  };
  // Each variant on its own thread, with its own generated and shape
  // instances and a design compiled from each.
  const auto check = [&](const Variant& v) {
    SCOPED_TRACE(v.name);
    ml::Workload w = rs_lr;
    if (v.merge_coef != 0) w.params.merge_coef = v.merge_coef;
    DanaSystem::Options options;
    options.fpga = DefaultFpga();
    options.functional_epoch_cap = 2;
    options.hw.force_threads = v.merge_coef;
    options.hw.mimd_only = v.mimd_only;
    const DanaSystem dana(CpuCostModel(), options);
    auto full =
        std::move(WorkloadInstance::Create(w, v.page_size)).ValueOrDie();
    auto shape =
        std::move(WorkloadInstance::CreateShape(w, v.page_size)).ValueOrDie();
    auto full_udf = std::move(dana.Compile(*full)).ValueOrDie();
    auto shape_udf = std::move(dana.Compile(*shape)).ValueOrDie();
    if (v.page_buffers != 0) {
      full_udf.design.num_page_buffers = v.page_buffers;
      shape_udf.design.num_page_buffers = v.page_buffers;
    }
    ExpectSameTimes(
        std::move(dana.TimeCompiled(shape_udf, shape.get(), CacheState::kWarm))
            .ValueOrDie(),
        std::move(dana.RunCompiled(full_udf, full.get(), CacheState::kWarm))
            .ValueOrDie());
  };
  std::vector<std::thread> workers;
  for (const Variant& v : kVariants) workers.emplace_back(check, std::cref(v));
  for (std::thread& worker : workers) worker.join();
}

}  // namespace
}  // namespace dana::runtime
