#include <gtest/gtest.h>

#include <algorithm>

#include "ml/workloads.h"
#include "runtime/systems.h"
#include "storage/buffer_pool.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dana::storage {
namespace {

PageLayout SmallLayout() {
  PageLayout l;
  l.page_size = 8 * 1024;
  return l;
}

std::unique_ptr<Table> MakeTable(uint32_t pages_wanted) {
  auto t = std::make_unique<Table>("t", Schema::Dense(100), SmallLayout());
  std::vector<double> row(101, 1.0);
  while (t->num_pages() < pages_wanted) {
    EXPECT_TRUE(t->AppendRow(row).ok());
  }
  return t;
}

// ---------------------------------------------------------------------------
// OS page-cache tier of the buffer pool
// ---------------------------------------------------------------------------

TEST(OsCacheTest, RereadsAreCheaperThanFirstReads) {
  auto t = MakeTable(8);
  // Pool holds 2 frames; OS cache holds everything.
  BufferPool pool(2 * 8 * 1024, 8 * 1024, DiskModel{});
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  const double first_scan = pool.stats().io_time.nanos();
  pool.ResetStats();
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  const double second_scan = pool.stats().io_time.nanos();
  // Same miss count (pool too small), but served from the OS cache.
  EXPECT_GT(second_scan, 0.0);
  EXPECT_LT(second_scan, first_scan / 5);
}

TEST(OsCacheTest, CapacityBoundsCachedPages) {
  auto t = MakeTable(8);
  // OS cache caps at 4 pages: half of every re-scan still hits disk.
  BufferPool pool(2 * 8 * 1024, 8 * 1024, DiskModel{},
                  /*os_cache_bytes=*/4 * 8 * 1024);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  pool.ResetStats();
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  const double rescan = pool.stats().io_time.nanos();
  // Compare with an uncapped pool's re-scan: must be clearly slower.
  BufferPool fast(2 * 8 * 1024, 8 * 1024, DiskModel{});
  for (int scan = 0; scan < 2; ++scan) {
    if (scan == 1) fast.ResetStats();
    for (uint64_t p = 0; p < 8; ++p) {
      ASSERT_TRUE(fast.FetchPage(*t, p).ok());
    }
  }
  EXPECT_GT(rescan, fast.stats().io_time.nanos() * 2);
}

TEST(OsCacheTest, ClockTierIsInclusiveAndAdmitsUntilFull) {
  auto t = MakeTable(8);
  // Pool of 2 frames over an unlimited and over a 4-page clock OS tier.
  BufferPool unlimited(2 * 8 * 1024, 8 * 1024, DiskModel{});
  BufferPool capped(2 * 8 * 1024, 8 * 1024, DiskModel{},
                    /*os_cache_bytes=*/4 * 8 * 1024);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(unlimited.FetchPage(*t, p).ok());
    ASSERT_TRUE(capped.FetchPage(*t, p).ok());
    // Inclusive: every page fetched so far is in the OS tier, those the
    // pool still holds included.
    EXPECT_EQ(unlimited.tier_resident_frames(BufferPool::kOsTier), p + 1);
    EXPECT_EQ(capped.tier_resident_frames(BufferPool::kOsTier),
              std::min<uint64_t>(p + 1, 4));
  }
  EXPECT_EQ(unlimited.resident_frames(), 2u);
  EXPECT_EQ(unlimited.tier_resident_frames(BufferPool::kOsTier, "t"), 8u);
  // The full tier kept the first four pages and refused the rest: a
  // re-scan finds exactly those in the OS cache.
  capped.ResetStats();
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(capped.FetchPage(*t, p).ok());
  }
  EXPECT_EQ(capped.stats().os_hits, 4u);
  EXPECT_EQ(capped.stats().os_misses, 4u);
  EXPECT_EQ(capped.tier_resident_frames(BufferPool::kOsTier, "t"), 4u);
}

TEST(OsCacheTest, PrewarmKeepsAnExclusiveTierExclusive) {
  // An LRU pool of 4 frames over a 16-page evicting OS tier: after a full
  // scan of 8 pages the pool holds 4..7 and the tier 0..3. Prewarming
  // the leading half promotes 0..3 into the pool, as a fetch would, and
  // demotes 4..7: no page is in both tiers.
  auto t = MakeTable(8);
  BufferPool pool(4 * 8 * 1024, 8 * 1024, DiskModel{},
                  /*os_cache_bytes=*/16 * 8 * 1024, EvictionKind::kLru);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  pool.Prewarm(*t, 0.5);
  EXPECT_DOUBLE_EQ(pool.TierResidentShare(BufferPool::kPoolTier, "t", 8),
                   0.5);
  EXPECT_DOUBLE_EQ(pool.TierResidentShare(BufferPool::kOsTier, "t", 8), 0.5);
  EXPECT_EQ(pool.resident_frames() +
                pool.tier_resident_frames(BufferPool::kOsTier),
            8u);
}

TEST(OsCacheTest, MarkOsCachedSkipsDiskOnFirstRead) {
  auto t = MakeTable(4);
  BufferPool pool(2 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.MarkOsCached(*t);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  // All misses served at OS-cache speed.
  DiskModel d;
  const double os_time = 4.0 * 8 * 1024 / d.os_cache_bw * 1e9;
  EXPECT_NEAR(pool.stats().io_time.nanos(), os_time, os_time * 0.01);
}

TEST(OsCacheTest, ClearDropsOsCacheToo) {
  auto t = MakeTable(4);
  BufferPool pool(2 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t);  // marks OS-cached as well
  pool.Clear();
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(*t, 3).ok());
  // Cold again: full disk cost.
  DiskModel d;
  EXPECT_GT(pool.stats().io_time.nanos(),
            8 * 1024 / d.seq_read_bw * 1e9 * 0.9);
}

// ---------------------------------------------------------------------------
// Warm/cold semantics through WorkloadInstance
// ---------------------------------------------------------------------------

TEST(OsCacheTest, WorkloadWarmPrepHasNoFirstEpochIo) {
  const ml::Workload* w = ml::FindWorkload("rs_lr");
  ASSERT_NE(w, nullptr);
  ml::Workload scaled = *w;
  scaled.tuples = 2000;
  auto instance =
      std::move(runtime::WorkloadInstance::Create(scaled)).ValueOrDie();

  instance->PrepareCache(runtime::CacheState::kWarm);
  const storage::Table& table = instance->table();
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    ASSERT_TRUE(instance->pool()->FetchPage(table, p).ok());
  }
  EXPECT_EQ(instance->pool()->stats().io_time.nanos(), 0.0)
      << "warm cache: table resident in the (scaled) pool";

  instance->PrepareCache(runtime::CacheState::kCold);
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    ASSERT_TRUE(instance->pool()->FetchPage(table, p).ok());
  }
  EXPECT_GT(instance->pool()->stats().io_time.nanos(), 0.0);
}

TEST(OsCacheTest, OversizedTableWarmStillPaysSomeIo) {
  // S/E-style workload: the (virtually scaled) table exceeds the pool, so
  // even a warm run re-fetches pages — but from the OS cache, not disk.
  const ml::Workload* w = ml::FindWorkload("se_svm");
  ASSERT_NE(w, nullptr);
  ml::Workload scaled = *w;
  scaled.tuples = 300;
  // Recompute the virtual scale so pool:table proportions match the paper.
  scaled.scale =
      static_cast<double>(w->paper.tuples) / scaled.tuples;
  auto instance =
      std::move(runtime::WorkloadInstance::Create(scaled)).ValueOrDie();
  instance->PrepareCache(runtime::CacheState::kWarm);
  const storage::Table& table = instance->table();
  EXPECT_LT(instance->pool()->ResidentFraction(table), 1.0)
      << "table must exceed the scaled pool for this workload";
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    ASSERT_TRUE(instance->pool()->FetchPage(table, p).ok());
  }
  EXPECT_GT(instance->pool()->stats().misses, 0u);
}

}  // namespace
}  // namespace dana::storage
