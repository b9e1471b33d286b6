// Physical shared-pool residency suite (ctest label: sched_pool).
//
// The executor owns one scale-normalized shared storage::BufferPool per
// slot — each workload's sweep covers WorkloadInstance::NormalizedPages
// logical pages, so tables generated at different scales meet in
// consistent paper-scale units — and the pool's per-table frame accounting
// is the only source dispatches are charged from. This suite pins:
//  - the normalization (paper-ratio-preserving, scale-free);
//  - the closed-form end state of a table swept alone (a pool-sized
//    window of it stays resident);
//  - co-located tables: clock-sweep eviction takes frames in hand order,
//    and the executor charges exactly what the pool holds;
//  - the pool version() bumps slice memoization keys its skip on;
//  - bit-for-bit determinism across repeat runs (CI runs this label twice
//    and diffs the logs);
//  - one pricing path: by name and by handle agree, and the order handles
//    were issued in never reaches a report;
//  - slot pools built on demand and independent of each other, and the
//    executor's pool.* gauges summing its per-slot pools.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/workloads.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/systems.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "storage/buffer_pool.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "support/synthetic_executor.h"

namespace dana::sched {
namespace {

/// Paper-scale pool ratio of a workload: table bytes over the paper's 8 GB
/// shared_buffers — what NormalizedPages must preserve in a shared pool.
double PaperRatio(const std::string& id) {
  const ml::Workload* w = ml::FindWorkload(id);
  EXPECT_NE(w, nullptr) << id;
  auto instance = runtime::WorkloadInstance::CreateShape(*w);
  EXPECT_TRUE(instance.ok());
  return (*instance)->PoolSizeRatio();
}

TEST(NormalizedPagesTest, PreservesPaperRatiosScaleFree) {
  // The divergence fixtures below rely on these workloads partially
  // filling a shared pool; pin the regime (not exact values, which track
  // the generators).
  const double lrmf_small = PaperRatio("sn_lrmf");
  const double linear = PaperRatio("sn_linear");
  const double lrmf_big = PaperRatio("se_lrmf");
  EXPECT_GT(lrmf_small, 0.05);
  EXPECT_LT(lrmf_small, 0.5);
  EXPECT_GT(linear, 0.3);
  EXPECT_LT(linear, 0.8);
  EXPECT_GT(lrmf_big, 0.5);
  EXPECT_LT(lrmf_big, 1.0);
  // NormalizedPages is the ratio times the shared frame count, floored at
  // one page, at any resolution.
  const ml::Workload* w = ml::FindWorkload("sn_linear");
  ASSERT_NE(w, nullptr);
  auto instance = runtime::WorkloadInstance::CreateShape(*w);
  ASSERT_TRUE(instance.ok());
  for (uint64_t frames : {64ull, 4096ull, 65536ull}) {
    const uint64_t pages = (*instance)->NormalizedPages(frames);
    EXPECT_NEAR(static_cast<double>(pages),
                (*instance)->PoolSizeRatio() * static_cast<double>(frames),
                1.0)
        << frames;
    EXPECT_GE(pages, 1u);
  }
  // A tiny workload still occupies at least one frame.
  const ml::Workload* tiny = ml::FindWorkload("wlan");
  ASSERT_NE(tiny, nullptr);
  auto tiny_instance = runtime::WorkloadInstance::CreateShape(*tiny);
  ASSERT_TRUE(tiny_instance.ok());
  EXPECT_GE((*tiny_instance)->NormalizedPages(64), 1u);
}

TEST(PhysicalPoolTest, ChargesAndIntrospectionComeFromThePool) {
  DanaQueryExecutor executor;  // defaults: physical pools on
  // Fresh slot: the pool is empty, the charge is genuinely cold.
  auto cold = RunWhole(executor, QueryBatch::Single("wlan", 0, 0));
  ASSERT_TRUE(cold.ok());
  EXPECT_DOUBLE_EQ(cold->exec->warm_fraction(), 0.0);
  EXPECT_TRUE(cold->exec->residency_modeled());
  // The run's sweep is physically visible: the workload's normalized
  // footprint resident, the pool's last_table names it.
  const ml::Workload* w = ml::FindWorkload("wlan");
  ASSERT_NE(w, nullptr);
  auto instance = runtime::WorkloadInstance::CreateShape(*w);
  ASSERT_TRUE(instance.ok());
  const uint64_t pages = (*instance)->NormalizedPages(4096);
  storage::BufferPool* pool = executor.slot_pool(0);
  EXPECT_EQ(pool->resident_frames("wlan"), pages);
  EXPECT_EQ(pool->last_table(), "wlan");
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 0), 1.0);
  // The warm repeat charges the measured warm endpoint, strictly faster.
  auto warm = RunWhole(executor, QueryBatch::Single("wlan", 1, 0));
  ASSERT_TRUE(warm.ok());
  EXPECT_DOUBLE_EQ(warm->exec->warm_fraction(), 1.0);
  EXPECT_LT(warm->slice.service.nanos(), cold->slice.service.nanos());
  // Other slots' pools are independent — still cold.
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 1), 0.0);
  // ResetResidency clears the physical pools.
  executor.ResetResidency();
  EXPECT_DOUBLE_EQ(executor.WarmFraction("wlan", 0), 0.0);
  EXPECT_EQ(executor.slot_pool(0)->resident_frames(), 0u);
}

TEST(PhysicalPoolTest, TableSweptAloneKeepsAPoolSizedWindow) {
  // With one table sweeping a slot, the end state has a closed form: the
  // whole table when it fits, otherwise its trailing pool-sized window —
  // min(1, frames / pages) residency, up to the pool's 1-frame
  // quantization — and repeats keep it there.
  const ml::Workload* w = ml::FindWorkload("se_logistic");
  ASSERT_NE(w, nullptr);
  auto instance = runtime::WorkloadInstance::CreateShape(*w);
  ASSERT_TRUE(instance.ok());
  const double pages =
      static_cast<double>((*instance)->NormalizedPages(4096));
  ASSERT_GT(pages, 4096.0);  // oversized: the window, not the whole table
  const double window = std::min(1.0, 4096.0 / pages);
  DanaQueryExecutor executor;
  for (int repeat = 0; repeat < 3; ++repeat) {
    ASSERT_TRUE(
        RunWhole(executor, QueryBatch::Single("se_logistic", 0, 0)).ok());
    EXPECT_NEAR(executor.WarmFraction("se_logistic", 0), window,
                1.0 / pages);
  }
}

/// Drives the three-table divergence on one slot and returns the executor:
/// small (sn_lrmf) then mid (sn_linear) fill the pool partially; big
/// (se_lrmf)'s sweep needs more than the free space, and the clock hand
/// takes the *small* table's frames first — a proportional model would
/// spread the loss evenly over both.
void DriveDivergence(DanaQueryExecutor& executor) {
  for (const char* id : {"sn_lrmf", "sn_linear", "se_lrmf"}) {
    auto cost = RunWhole(executor, QueryBatch::Single(id, 0, 0));
    ASSERT_TRUE(cost.ok()) << id;
  }
}

TEST(DivergenceTest, ExecutorChargesTheClockHandOrder) {
  DanaQueryExecutor executor;
  DriveDivergence(executor);

  // Hand order: the first-installed table lost strictly more.
  const double pool_small = executor.WarmFraction("sn_lrmf", 0);
  const double pool_mid = executor.WarmFraction("sn_linear", 0);
  EXPECT_LT(pool_small, pool_mid);

  // The executor charges the physical answer: the next dispatch's
  // warm_fraction is the pool's, and its service interpolates from it.
  auto exec = executor.Begin(QueryBatch::Single("sn_linear", 1, 0));
  ASSERT_TRUE(exec.ok());
  EXPECT_DOUBLE_EQ((*exec)->warm_fraction(), pool_mid);
}

TEST(DivergenceTest, RepeatRunsAreBitForBit) {
  // The property CI double-checks by diffing two -L sched_pool logs: the
  // physical pools must not introduce any run-to-run nondeterminism.
  auto run = [] {
    DanaQueryExecutor executor;
    DriveDivergence(executor);
    std::vector<double> out;
    for (const char* id : {"sn_lrmf", "sn_linear", "se_lrmf"}) {
      out.push_back(executor.WarmFraction(id, 0));
      auto cost = RunWhole(executor, QueryBatch::Single(id, 1, 0));
      EXPECT_TRUE(cost.ok());
      out.push_back(cost->exec->warm_fraction());
      out.push_back(cost->slice.service.nanos());
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

/// Property: over any random dispatch sequence, (1) every charged
/// warm_fraction equals the slot pool's resident share at dispatch time,
/// and (2) per-table frames partition each pool.
TEST(DivergenceTest, PropertyChargesAlwaysMatchPoolState) {
  const std::vector<std::string> ids = {"sn_lrmf", "sn_linear", "se_lrmf"};
  DanaQueryExecutor executor;
  dana::Rng seq(0x9001);
  uint64_t next_query = 0;
  for (int step = 0; step < 24; ++step) {
    const std::string& id = ids[seq.UniformInt(ids.size())];
    const uint32_t slot = static_cast<uint32_t>(seq.UniformInt(2));
    const double expected = executor.WarmFraction(id, slot);
    auto cost = RunWhole(executor, QueryBatch::Single(id, next_query++, slot));
    ASSERT_TRUE(cost.ok());
    EXPECT_DOUBLE_EQ(cost->exec->warm_fraction(), expected);
    for (uint32_t s = 0; s < 2; ++s) {
      const storage::BufferPool* pool = executor.slot_pool(s);
      uint64_t per_table = 0;
      for (const std::string& t : ids) per_table += pool->resident_frames(t);
      EXPECT_EQ(per_table, pool->resident_frames());
      EXPECT_LE(pool->resident_frames(), pool->num_frames());
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-epoch slice fidelity (the oversized-table regression)
// ---------------------------------------------------------------------------

/// A multi-epoch run re-reads its table every epoch. For a fitting table
/// the second and later passes are pure hits — one sweep already tells the
/// whole story — but an OVERSIZED table (PoolSizeRatio > 1) wraps the
/// clock hand every pass: each extra sweep evicts and refaults, churning
/// co-located tables and the pool's turnover counters. The slice path used
/// to charge a single sweep per slice regardless of the epoch count,
/// understating that churn; it now sweeps min(epochs, 2) times — pass two
/// is the steady state, so two passes capture the wraparound without
/// paying the full epoch budget. This pins the fix by replaying the exact
/// sweep sequences on
/// bare pools: the executor's end state must match the two-pass replay and
/// must NOT match the old one-pass behavior.
TEST(MultiEpochSliceTest, OversizedTableChargesTheSteadyStateSweep) {
  const ml::Workload* small_w = ml::FindWorkload("sn_lrmf");
  const ml::Workload* big_w = ml::FindWorkload("se_logistic");
  ASSERT_NE(small_w, nullptr);
  ASSERT_NE(big_w, nullptr);
  auto big_instance = runtime::WorkloadInstance::CreateShape(*big_w);
  ASSERT_TRUE(big_instance.ok());
  // Fixture preconditions: the big table overflows the pool and its run
  // spans enough epochs that the second sweep actually happens.
  ASSERT_GT((*big_instance)->PoolSizeRatio(), 1.0);
  ASSERT_GE(big_w->params.epochs, 2u);
  ASSERT_EQ(small_w->params.epochs, 1u);

  DanaQueryExecutor executor;
  ASSERT_TRUE(RunWhole(executor, QueryBatch::Single("sn_lrmf", 0, 0)).ok());
  ASSERT_TRUE(RunWhole(executor, QueryBatch::Single("se_logistic", 1, 0)).ok());
  const storage::BufferPool* pool = executor.slot_pool(0);

  // Replay the charged sweep sequence on a bare pool of the executor's
  // exact geometry: one pass of the small table (one epoch, one sweep),
  // two of the oversized one.
  auto small_instance = runtime::WorkloadInstance::CreateShape(*small_w);
  ASSERT_TRUE(small_instance.ok());
  const uint64_t small_pages = (*small_instance)->NormalizedPages(4096);
  const uint64_t big_pages = (*big_instance)->NormalizedPages(4096);
  ASSERT_GT(big_pages, 4096u);

  storage::BufferPool two_pass =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  two_pass.ScanTable("sn_lrmf", small_pages);
  two_pass.ScanTable("se_logistic", big_pages);
  two_pass.ScanTable("se_logistic", big_pages);
  EXPECT_EQ(pool->version(), two_pass.version());
  EXPECT_EQ(pool->stats().misses, two_pass.stats().misses);
  EXPECT_EQ(pool->stats().evictions, two_pass.stats().evictions);
  EXPECT_EQ(pool->resident_frames("se_logistic"),
            two_pass.resident_frames("se_logistic"));
  EXPECT_EQ(pool->resident_frames("sn_lrmf"),
            two_pass.resident_frames("sn_lrmf"));

  // The pre-fix single sweep is observably different: the wraparound
  // pass's churn is missing from the turnover counters. (Per-table
  // residency alone cannot distinguish the two — the steady state parks
  // the same frames — which is why the divergence hid in multi-epoch
  // runs until the turnover was pinned.)
  storage::BufferPool one_pass =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  one_pass.ScanTable("sn_lrmf", small_pages);
  one_pass.ScanTable("se_logistic", big_pages);
  EXPECT_NE(pool->version(), one_pass.version());
  EXPECT_NE(pool->stats().misses, one_pass.stats().misses);
  EXPECT_EQ(pool->resident_frames("se_logistic"),
            one_pass.resident_frames("se_logistic"));
}

/// Fitting tables must be unaffected by the cap: their second pass is a
/// complete no-op (pure hits, no installs), so multi-epoch runs charge
/// exactly what single-epoch runs always did.
TEST(MultiEpochSliceTest, FittingTableSecondSweepIsANoOp) {
  const ml::Workload* w = ml::FindWorkload("sn_linear");
  ASSERT_NE(w, nullptr);
  auto instance = runtime::WorkloadInstance::CreateShape(*w);
  ASSERT_TRUE(instance.ok());
  ASSERT_LT((*instance)->PoolSizeRatio(), 1.0);
  ASSERT_GE(w->params.epochs, 2u);

  DanaQueryExecutor executor;
  ASSERT_TRUE(RunWhole(executor, QueryBatch::Single("sn_linear", 0, 0)).ok());
  const storage::BufferPool* pool = executor.slot_pool(0);
  const uint64_t pages = (*instance)->NormalizedPages(4096);

  storage::BufferPool one_pass =
      storage::BufferPool::SizedInFrames(4096, 32 * 1024, storage::DiskModel{});
  one_pass.ScanTable("sn_linear", pages);
  EXPECT_EQ(pool->version(), one_pass.version());
  EXPECT_EQ(pool->resident_frames("sn_linear"),
            one_pass.resident_frames("sn_linear"));
  EXPECT_EQ(pool->stats().misses, one_pass.stats().misses);
  EXPECT_DOUBLE_EQ(executor.WarmFraction("sn_linear", 0), 1.0);
}

// ---------------------------------------------------------------------------
// OS-tier mutations vs slice memoization: version() is the contract
// ---------------------------------------------------------------------------

TEST(SliceMemoizationVersionTest, OsTierMutationsBumpPoolVersion) {
  // The memo's "undisturbed pool" check is two version() reads bracketing
  // the sweep, so an OS-tier reshape the sweep did not see must bump the
  // counter — otherwise slice memoization serves a sweep priced against a
  // tier layout that no longer exists. A genuinely idempotent re-mark
  // (clock's admit-until-full set, already holding every page) must NOT
  // bump it: that is exactly the repeat the memo exists to skip.
  storage::PageLayout layout;
  layout.page_size = 8 * 1024;
  storage::Table table("t", storage::Schema::Dense(100), layout);
  std::vector<double> row(101, 1.0);
  while (table.num_pages() < 6) {
    ASSERT_TRUE(table.AppendRow(row).ok());
  }

  for (storage::EvictionKind kind :
       {storage::EvictionKind::kClock, storage::EvictionKind::kLru,
        storage::EvictionKind::kPromotional}) {
    auto pool = storage::BufferPool::SizedInFrames(
        4, 8 * 1024, storage::DiskModel{}, kind, /*os_frames=*/8);
    const uint64_t fresh = pool.version();
    pool.MarkOsCached(table);
    const uint64_t marked = pool.version();
    EXPECT_GT(marked, fresh) << storage::EvictionKindName(kind);
    pool.MarkOsCached(table);
    if (kind == storage::EvictionKind::kClock) {
      // Every page already admitted: nothing changed, nothing bumped.
      EXPECT_EQ(pool.version(), marked) << storage::EvictionKindName(kind);
    } else {
      // The evicting tiers re-reference every page, which reorders the
      // replacement queues — future victims differ, so it must count.
      EXPECT_GT(pool.version(), marked) << storage::EvictionKindName(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Handle-keyed pricing
// ---------------------------------------------------------------------------

/// Every simulated field of two reports, compared exactly.
void ExpectSameReport(const ScheduleReport& a, const ScheduleReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const QueryStat& x = a.queries[i];
    const QueryStat& y = b.queries[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(x.slot, y.slot) << i;
    EXPECT_EQ(x.start.nanos(), y.start.nanos()) << i;
    EXPECT_EQ(x.completion.nanos(), y.completion.nanos()) << i;
    EXPECT_EQ(x.compile.nanos(), y.compile.nanos()) << i;
    EXPECT_EQ(x.service.nanos(), y.service.nanos()) << i;
    EXPECT_EQ(x.warm_fraction, y.warm_fraction) << i;
    EXPECT_EQ(x.os_warm_fraction, y.os_warm_fraction) << i;
  }
  EXPECT_EQ(a.makespan.nanos(), b.makespan.nanos());
}

/// A seeded Zipf stream over `catalog` (its first entry hottest), offered
/// at about 80% of `slots` by the executor's a-priori estimates.
std::vector<QueryRequest> SeededStream(DanaQueryExecutor& executor,
                                       const std::vector<std::string>& catalog,
                                       uint32_t slots, uint64_t seed) {
  double mean_s = 0;
  for (const std::string& id : catalog) {
    auto est = executor.Estimate(id);
    EXPECT_TRUE(est.ok()) << id;
    mean_s += est->seconds() / static_cast<double>(catalog.size());
  }
  DriverOptions driver;
  driver.seed = seed;
  driver.num_queries = 40;
  driver.popularity = Popularity::kZipfian;
  driver.arrival_rate_qps = 0.8 * slots / mean_s;
  auto stream = WorkloadDriver(catalog, driver).Generate();
  EXPECT_TRUE(stream.ok());
  return *stream;
}

TEST(HandleTest, ByNameAndByHandleAgreeAndResolveOrderNeverLeaks) {
  // Four one-page tables over one-frame slot pools: sweeps demote pages
  // into the LRU OS tier, so pricing takes the three-endpoint path.
  DanaQueryExecutor::Options options;
  options.pool_frames = 1;
  options.eviction = storage::EvictionKind::kLru;
  options.os_frames = 1;
  SchedulerOptions sched;
  sched.slots = 2;
  sched.policy = Policy::kSjf;
  sched.affinity_weight = 1.0;
  const std::vector<std::string> catalog = {"blog", "patient", "wlan",
                                            "netflix"};

  DanaQueryExecutor executor(options);
  auto first = Scheduler(sched, &executor)
                   .Run(SeededStream(executor, catalog, sched.slots, 7));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(std::any_of(
      first->queries.begin(), first->queries.end(),
      [](const QueryStat& q) { return q.os_warm_fraction > 0.0; }));
  for (const std::string& id : catalog) {
    auto handle = executor.Resolve(id);
    ASSERT_TRUE(handle.ok()) << id;
    for (uint32_t s = 0; s < sched.slots; ++s) {
      const double warm = executor.WarmFraction(id, s);
      EXPECT_EQ(warm, executor.WarmFractionOf(*handle, s)) << id << s;
      auto by_name = executor.EstimateAtWarmth(id, warm);
      auto by_handle = executor.EstimateAtWarmthOf(*handle, warm);
      ASSERT_TRUE(by_name.ok() && by_handle.ok()) << id;
      EXPECT_EQ(by_name->nanos(), by_handle->nanos()) << id << s;
    }
  }

  // The reversed catalog makes another workload hottest, so ids first
  // appear in another order than the one this executor resolved them in.
  const std::vector<std::string> reversed(catalog.rbegin(), catalog.rend());
  const std::vector<QueryRequest> stream =
      SeededStream(executor, reversed, sched.slots, 8);
  ASSERT_NE(stream.front().workload_id, catalog.front());
  executor.ResetResidency();
  auto reused = Scheduler(sched, &executor).Run(stream);
  DanaQueryExecutor fresh(options);
  auto from_fresh = Scheduler(sched, &fresh).Run(stream);
  ASSERT_TRUE(reused.ok() && from_fresh.ok());
  ExpectSameReport(*reused, *from_fresh);
}

// ---------------------------------------------------------------------------
// Slot pools: built on demand, independent, rolled up into pool.* gauges
// ---------------------------------------------------------------------------

/// The `gauges` object of `registry`'s snapshot.
obs::Json Gauges(const obs::MetricRegistry& registry) {
  const obs::Json snapshot = registry.ToJson();
  const obs::Json* gauges = snapshot.Find("gauges");
  EXPECT_NE(gauges, nullptr);
  return gauges != nullptr ? *gauges : obs::Json();
}

TEST(SlotPoolTest, GrowsOnDemandAndSlotsAreIndependent) {
  DanaQueryExecutor executor;
  // Slot 0's pool exists from construction, and no other.
  obs::MetricRegistry before;
  executor.PublishGauges(&before);
  EXPECT_NE(Gauges(before).Find("pool.slot0.hits"), nullptr);
  EXPECT_EQ(Gauges(before).Find("pool.slot1.hits"), nullptr);

  // Reaching past the end builds every slot up to it; earlier pools keep
  // their address.
  storage::BufferPool* slot0 = executor.slot_pool(0);
  storage::BufferPool* slot3 = executor.slot_pool(3);
  ASSERT_NE(slot3, nullptr);
  EXPECT_EQ(executor.slot_pool(0), slot0);
  EXPECT_NE(slot3, slot0);
  obs::MetricRegistry after;
  executor.PublishGauges(&after);
  EXPECT_NE(Gauges(after).Find("pool.slot3.hits"), nullptr);
  EXPECT_EQ(Gauges(after).Find("pool.slot4.hits"), nullptr);

  // A run on slot 2 fills only slot 2's pool: no slot aliases another's
  // residency or counters.
  ASSERT_TRUE(RunWhole(executor, QueryBatch::Single("wlan", 0, 2)).ok());
  for (uint32_t s = 0; s < 4; ++s) {
    const storage::BufferPool* pool = executor.slot_pool(s);
    if (s == 2) {
      EXPECT_GT(pool->resident_frames("wlan"), 0u);
      EXPECT_GT(pool->stats().misses, 0u);
    } else {
      EXPECT_EQ(pool->resident_frames(), 0u) << s;
      EXPECT_EQ(pool->stats().misses + pool->stats().hits, 0u) << s;
    }
  }
  // PrepareSlots builds the slots a run will use up front.
  executor.PrepareSlots(6);
  obs::MetricRegistry prepared;
  executor.PublishGauges(&prepared);
  EXPECT_NE(Gauges(prepared).Find("pool.slot5.hits"), nullptr);
  EXPECT_EQ(Gauges(prepared).Find("pool.slot6.hits"), nullptr);
}

TEST(SlotPoolTest, PublishGaugesRollsUpEverySlot) {
  // Small LRU pools over an OS tier, so the run evicts and demotes.
  DanaQueryExecutor::Options options;
  options.pool_frames = 2;
  options.eviction = storage::EvictionKind::kLru;
  options.os_frames = 2;
  SchedulerOptions sched;
  sched.slots = 3;
  sched.policy = Policy::kSjf;
  const std::vector<std::string> catalog = {"blog", "patient", "wlan",
                                            "netflix"};
  DanaQueryExecutor executor(options);
  auto report = Scheduler(sched, &executor)
                    .Run(SeededStream(executor, catalog, sched.slots, 11));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  obs::MetricRegistry registry;
  executor.PublishGauges(&registry);
  const obs::Json gauges = Gauges(registry);
  for (const char* field :
       {"hits", "misses", "evictions", "io_time_s", "resident_frames"}) {
    double sum = 0;
    uint32_t slots = 0;
    for (; slots < 8; ++slots) {
      const obs::Json* slot = gauges.Find(
          "pool.slot" + std::to_string(slots) + "." + field);
      if (slot == nullptr) break;
      sum += slot->AsNumber();
    }
    EXPECT_EQ(slots, sched.slots) << field;
    const obs::Json* rollup = gauges.Find(std::string("pool.") + field);
    ASSERT_NE(rollup, nullptr) << field;
    EXPECT_DOUBLE_EQ(rollup->AsNumber(), sum) << field;
  }
  // The run reached every slot and evicted on some.
  EXPECT_GT(gauges.Find("pool.evictions")->AsNumber(), 0.0);
  for (uint32_t s = 0; s < sched.slots; ++s) {
    EXPECT_GT(executor.slot_pool(s)->stats().misses, 0u) << s;
  }
}

}  // namespace
}  // namespace dana::sched
