#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/eviction_policy.h"
#include "storage/page_layout.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dana::storage {
namespace {

// ---------------------------------------------------------------------------
// Clock bit-compatibility
// ---------------------------------------------------------------------------

/// Reference implementation of the seed buffer pool's replacement: frames
/// fill in order, each hit sets the frame's reference bit, and a full pool
/// runs the classic second-chance hand sweep from where it last stopped.
/// The refactored pool delegates victim selection to ClockEvictionPolicy;
/// this simulator pins that the delegation reproduced the seed behaviour
/// decision for decision.
class ReferenceClock {
 public:
  explicit ReferenceClock(size_t frames) : ref_(frames, 0) {}

  /// Touches (table, page); returns true on hit. `evicted` reports the
  /// frame index evicted this touch, or -1.
  bool Touch(uint32_t table, uint64_t page, int* evicted) {
    *evicted = -1;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i].first == table && keys_[i].second == page) {
        ref_[i] = 1;
        return true;
      }
    }
    if (keys_.size() < ref_.size()) {
      keys_.emplace_back(table, page);
      ref_[keys_.size() - 1] = 1;
      return false;
    }
    while (ref_[hand_] != 0) {
      ref_[hand_] = 0;
      hand_ = (hand_ + 1) % ref_.size();
    }
    *evicted = static_cast<int>(hand_);
    ++evictions_;
    keys_[hand_] = {table, page};
    ref_[hand_] = 1;
    hand_ = (hand_ + 1) % ref_.size();
    return false;
  }

  uint64_t evictions() const { return evictions_; }
  size_t resident() const { return keys_.size(); }

 private:
  std::vector<std::pair<uint32_t, uint64_t>> keys_;
  std::vector<uint8_t> ref_;
  size_t hand_ = 0;
  uint64_t evictions_ = 0;
};

TEST(ClockCompatTest, MatchesReferenceClockOnRandomTrace) {
  constexpr size_t kFrames = 16;
  auto pool = BufferPool::SizedInFrames(kFrames, 8 * 1024, DiskModel{},
                                        EvictionKind::kClock,
                                        /*os_frames=*/0);
  ReferenceClock ref(kFrames);
  const uint32_t t0 = pool.InternTable("a");
  const uint32_t t1 = pool.InternTable("b");
  // Deterministic mixed trace: two tables, 48 distinct pages, enough
  // re-references that reference bits and hand position both matter.
  uint64_t x = 0x243F6A8885A308D3ull;
  for (int step = 0; step < 4000; ++step) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t table = (x >> 33) & 1 ? t1 : t0;
    const uint64_t page = (x >> 40) % 24;
    int evicted = -1;
    const bool ref_hit = ref.Touch(table, page, &evicted);
    const bool pool_hit = pool.TouchPage(table, page);
    ASSERT_EQ(pool_hit, ref_hit) << "step " << step;
    ASSERT_EQ(pool.resident_frames(), ref.resident()) << "step " << step;
    ASSERT_EQ(pool.stats().evictions, ref.evictions()) << "step " << step;
  }
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST(ClockCompatTest, OversizedScanKeepsMissingOnRescan) {
  // The seed invariant the sched suites depend on: a cyclic sequential
  // scan of a table larger than the pool never hits (each touch evicts
  // the page the scan will want next).
  auto pool = BufferPool::SizedInFrames(8, 8 * 1024, DiskModel{},
                                        EvictionKind::kClock, 0);
  const uint32_t tid = pool.InternTable("big");
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t p = 0; p < 12; ++p) {
      EXPECT_FALSE(pool.TouchPage(tid, p)) << "pass " << pass << " p " << p;
    }
  }
  EXPECT_EQ(pool.resident_frames(), 8u);
}

// ---------------------------------------------------------------------------
// LRU vs clock divergence
// ---------------------------------------------------------------------------

TEST(LruEvictionTest, DivergesFromClockOnCraftedTrace) {
  // Crafted 3-frame trace where recency order and hand order part ways:
  //   touch 0,1,2 (fill), 3 (evict 0), 4 (evict 1), 2 (hit), 5
  // At the last touch clock's hand sweep clears every reference bit and
  // evicts page 2 (the only hit of the trace), while LRU protects the
  // recently-used page 2 and evicts page 3 (the least recent).
  auto clock_pool = BufferPool::SizedInFrames(3, 8 * 1024, DiskModel{},
                                              EvictionKind::kClock, 0);
  auto lru_pool = BufferPool::SizedInFrames(3, 8 * 1024, DiskModel{},
                                            EvictionKind::kLru, 0);
  for (BufferPool* pool : {&clock_pool, &lru_pool}) {
    const uint32_t tid = pool->InternTable("t");
    for (uint64_t p : {0u, 1u, 2u, 3u, 4u}) {
      EXPECT_FALSE(pool->TouchPage(tid, p));
    }
    EXPECT_TRUE(pool->TouchPage(tid, 2));
    EXPECT_FALSE(pool->TouchPage(tid, 5));
  }
  // The policies now disagree about page 2.
  EXPECT_FALSE(clock_pool.TouchPage(clock_pool.InternTable("t"), 2));
  EXPECT_TRUE(lru_pool.TouchPage(lru_pool.InternTable("t"), 2));
}

// ---------------------------------------------------------------------------
// Promotional (SLRU-style) promotion/demotion order
// ---------------------------------------------------------------------------

TEST(PromotionalEvictionTest, ReReferencePromotesAndProbationEvictsFirst) {
  // 4 frames, protected capacity 2. Insert 0..3 (all probationary), then
  // re-reference 1 and 0 (promote to protected), then 2 (protected
  // overflows, demoting 1 back to probationary MRU). The next miss must
  // take the probationary LRU — page 3, never touched since insert.
  auto pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{},
                                        EvictionKind::kPromotional, 0);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p : {0u, 1u, 2u, 3u}) {
    EXPECT_FALSE(pool.TouchPage(tid, p));
  }
  EXPECT_TRUE(pool.TouchPage(tid, 1));  // probation -> protected
  EXPECT_TRUE(pool.TouchPage(tid, 0));  // probation -> protected (full)
  EXPECT_TRUE(pool.TouchPage(tid, 2));  // promotes; demotes 1 to probation
  EXPECT_FALSE(pool.TouchPage(tid, 4));  // evicts probationary LRU = 3
  EXPECT_TRUE(pool.TouchPage(tid, 1));
  EXPECT_TRUE(pool.TouchPage(tid, 0));
  EXPECT_TRUE(pool.TouchPage(tid, 2));
  EXPECT_FALSE(pool.TouchPage(tid, 3));  // 3 was the victim
}

TEST(PromotionalEvictionTest, ProtectedSurvivesScanFlood) {
  // The ZNCache property the tier sweep banks on: a hot, re-referenced
  // working set in the protected segment survives a one-pass cold scan
  // that would flood clock or LRU.
  auto pool = BufferPool::SizedInFrames(8, 8 * 1024, DiskModel{},
                                        EvictionKind::kPromotional, 0);
  const uint32_t hot = pool.InternTable("hot");
  const uint32_t cold = pool.InternTable("cold");
  for (uint64_t p = 0; p < 4; ++p) pool.TouchPage(hot, p);
  for (uint64_t p = 0; p < 4; ++p) EXPECT_TRUE(pool.TouchPage(hot, p));
  for (uint64_t p = 0; p < 16; ++p) pool.TouchPage(cold, p);  // flood
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool.TouchPage(hot, p)) << "hot page " << p;
  }
}

// ---------------------------------------------------------------------------
// OS-tier admission after saturation (the fixed bug) and demotion cascade
// ---------------------------------------------------------------------------

TEST(PageTierTest, FullTierEvictsInsteadOfRefusingAdmission) {
  // An admit-until-full tier never changes once full: a page first read
  // after saturation can never become OS-cached. An evicting tier must
  // instead displace a victim, whichever policy picks it.
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    PageTier tier(kind, 3, PageTier::Admission::kEvict);
    const PageKey k1{0, 1}, k2{0, 2}, k3{0, 3}, k4{0, 4};
    EXPECT_FALSE(tier.Insert(k1));
    EXPECT_FALSE(tier.Insert(k2));
    EXPECT_FALSE(tier.Insert(k3));
    ASSERT_EQ(tier.resident(), 3u);
    EXPECT_FALSE(tier.Insert(k2));  // k2 is hot; a sane policy spares it
    EXPECT_TRUE(tier.Insert(k4)) << EvictionKindName(kind);
    EXPECT_TRUE(tier.Contains(k4)) << EvictionKindName(kind);
    EXPECT_TRUE(tier.Contains(k2)) << EvictionKindName(kind);
    EXPECT_EQ(tier.resident(), 3u);
  }
}

TEST(PageTierTest, FullClockTierRefusesAdmission) {
  // Clock's OS tier admits until full and picks no victim: an insert into
  // a full tier is refused and every page it held stays.
  PageTier tier(EvictionKind::kClock, 3, PageTier::Admission::kUntilFull);
  const PageKey k1{0, 1}, k2{0, 2}, k3{0, 3}, k4{0, 4};
  for (const PageKey& k : {k1, k2, k3}) EXPECT_FALSE(tier.Insert(k));
  ASSERT_TRUE(tier.full());
  EXPECT_FALSE(tier.Insert(k4));
  EXPECT_FALSE(tier.Contains(k4));
  for (const PageKey& k : {k1, k2, k3}) EXPECT_TRUE(tier.Contains(k));
  EXPECT_EQ(tier.resident(), 3u);
  EXPECT_EQ(tier.resident(0), 3u);
}

TEST(TieredPoolTest, PostSaturationHotPageDisplacesColdOne) {
  // End to end through the BufferPool: with an evicting OS tier, a page
  // demoted after the tier saturates still gets admitted (displacing a
  // colder one) — the regression the never-evicting set failed.
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru,
                                        /*os_frames=*/2);
  const uint32_t tid = pool.InternTable("t");
  // Touch 0..5: the pool keeps the trailing 2 pages, the OS tier receives
  // the demotions and keeps ITS trailing 2 — the tier kept evicting long
  // after it first filled.
  for (uint64_t p = 0; p < 6; ++p) pool.TouchPage(tid, p);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
  EXPECT_GT(pool.stats().os_evictions, 0u);
  // Pool holds {4, 5}; OS tier holds the latest demotions {2, 3}.
  EXPECT_TRUE(pool.TouchPage(tid, 4));
  EXPECT_TRUE(pool.TouchPage(tid, 5));
  const uint64_t os_hits_before = pool.stats().os_hits;
  pool.TouchPage(tid, 3);  // OS-tier hit: promoted back into the pool
  EXPECT_EQ(pool.stats().os_hits, os_hits_before + 1);
}

TEST(TieredPoolTest, OsHitPromotesAndExclusivityHolds) {
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru, 4);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p = 0; p < 4; ++p) pool.TouchPage(tid, p);
  // Pool {2, 3}; OS {0, 1}. A page is never in both tiers at once.
  EXPECT_EQ(pool.resident_frames(), 2u);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
  pool.TouchPage(tid, 0);  // promote 0; demote pool victim (2) to OS
  EXPECT_TRUE(pool.TouchPage(tid, 0));
  EXPECT_EQ(pool.resident_frames() +
                pool.tier_resident_frames(BufferPool::kOsTier),
            4u);
  EXPECT_EQ(pool.stats().os_hits, 1u);
}

TEST(TieredPoolTest, TierResidentShareSplitsByTable) {
  auto pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{},
                                        EvictionKind::kPromotional, 8);
  const uint32_t a = pool.InternTable("a");
  const uint32_t b = pool.InternTable("b");
  pool.ScanTable(a, 8);
  pool.ScanTable(b, 4);
  const double a_pool = pool.ResidentShare(a, 8);
  const double a_os = pool.TierResidentShare(BufferPool::kOsTier, a, 8);
  const double b_pool = pool.ResidentShare(b, 4);
  const double b_os = pool.TierResidentShare(BufferPool::kOsTier, b, 4);
  // Shares are per-table fractions in [0, 1]; the tiers are exclusive, so
  // each table's pool + OS shares never exceed 1, and b's scan displaced
  // a into the tier.
  EXPECT_LE(a_pool + a_os, 1.0 + 1e-12);
  EXPECT_LE(b_pool + b_os, 1.0 + 1e-12);
  EXPECT_GT(a_os, 0.0);
  EXPECT_GT(b_pool, 0.0);
}

TEST(TieredPoolTest, ClearResetsEveryTier) {
  auto pool = BufferPool::SizedInFrames(2, 8 * 1024, DiskModel{},
                                        EvictionKind::kLru, 2);
  const uint32_t tid = pool.InternTable("t");
  for (uint64_t p = 0; p < 8; ++p) pool.TouchPage(tid, p);
  pool.Clear();
  EXPECT_EQ(pool.resident_frames(), 0u);
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 0u);
  // And the trace replays identically from the cleared state.
  for (uint64_t p = 0; p < 8; ++p) EXPECT_FALSE(pool.TouchPage(tid, p));
  EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), 2u);
}

// ---------------------------------------------------------------------------
// Frozen pool behaviour: golden digests of a mixed trace
// ---------------------------------------------------------------------------

/// One pool shape: policy × OS-tier size (in frames; 0 disables).
struct TraceCase {
  EvictionKind kind;
  uint64_t os_frames;
  uint64_t digest;
};

void PrintTo(const TraceCase& c, std::ostream* os) {
  *os << EvictionKindName(c.kind) << " os " << c.os_frames;
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
uint64_t Fold(uint64_t h, T v) {
  return Fnv1a(h, &v, sizeof(v));
}

/// A real heap table of at least `pages` pages (FetchPage reads its bytes).
std::unique_ptr<Table> MakeTable(const std::string& name, uint64_t pages) {
  auto table = std::make_unique<Table>(name, Schema::Dense(1000),
                                       PageLayout{});
  std::vector<double> row(1001, 0.5);
  while (table->num_pages() < pages) {
    row[0] = static_cast<double>(table->num_tuples());
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

/// The constants below were recorded from the hashed page index that the
/// direct-mapped one replaced. Every TouchPage result, every stats field,
/// every per-tier per-table residency count and every version() bump of a
/// seeded trace is folded into one FNV-1a digest, so any change to victim
/// choice, tier demotion/promotion order, clock's OS admission or the
/// fill cursor moves it. The pools they were recorded from also had a
/// third (capacity) tier, empty in these shapes; the digest folds a 0 for
/// each of its counters and residencies, so the constants still hold.
/// The lru-64 and promotional-64 constants were re-recorded when Prewarm
/// began taking the pages it installs out of an exclusive OS tier (the
/// trace prewarms tables the tier holds); the other five never prewarm
/// through an exclusive tier and are unchanged.
class PoolTraceGolden : public ::testing::TestWithParam<TraceCase> {};

TEST_P(PoolTraceGolden, TraceDigestIsFrozen) {
  const TraceCase& c = GetParam();
  constexpr uint64_t kFrames = 32;
  const PageLayout layout;
  auto pool = BufferPool::SizedInFrames(kFrames, layout.page_size,
                                        DiskModel{}, c.kind, c.os_frames);
  // Logical tables 0.25x-3x the pool, swept and touched data-free, and
  // two real tables for the data paths (FetchPage, Prewarm, MarkOsCached).
  const std::vector<std::pair<const char*, uint64_t>> logical = {
      {"t0", kFrames / 4}, {"t1", kFrames}, {"t2", 2 * kFrames},
      {"t3", 3 * kFrames}};
  std::vector<uint32_t> ids;
  std::vector<uint64_t> pages;
  for (const auto& [name, n] : logical) {
    ids.push_back(pool.InternTable(name));
    pages.push_back(n);
  }
  std::vector<std::unique_ptr<Table>> real;
  real.push_back(MakeTable("r0", 12));
  real.push_back(MakeTable("r1", 40));
  for (const auto& table : real) {
    ids.push_back(pool.InternTable(table->name()));
    pages.push_back(table->num_pages());
  }

  constexpr int kSteps = 1500;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x](uint64_t n) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % n;
  };
  uint64_t h = 0xcbf29ce484222325ull;
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t op = step == kSteps / 2 ? 100 : next(100);
    h = Fold(h, op);
    if (op < 8) {
      const size_t t = next(logical.size());
      pool.ScanTable(ids[t], pages[t]);
    } else if (op < 70) {
      const size_t t = next(ids.size());
      h = Fold(h, pool.TouchPage(ids[t], next(pages[t])));
    } else if (op < 88) {
      const Table& table = *real[next(real.size())];
      const uint64_t p = next(table.num_pages());
      auto data = pool.FetchPage(table, p);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      ASSERT_EQ(std::memcmp(*data, table.PageData(p), layout.page_size), 0)
          << "step " << step;
    } else if (op < 94) {
      pool.MarkOsCached(*real[next(real.size())]);
    } else if (op < 100) {
      const Table& table = *real[next(real.size())];
      pool.Prewarm(table, 0.25 * static_cast<double>(1 + next(4)));
    } else {
      pool.Clear();
    }
    const BufferPoolStats& s = pool.stats();
    // The two zeros stand for the third tier's hits and evictions.
    for (uint64_t v : {s.hits, s.misses, s.evictions, s.os_hits, s.os_misses,
                       s.os_evictions, uint64_t{0}, uint64_t{0}}) {
      h = Fold(h, v);
    }
    h = Fold(h, s.io_time.nanos());
    for (size_t tier : {BufferPool::kPoolTier, BufferPool::kOsTier}) {
      h = Fold(h, pool.tier_resident_frames(tier));
      for (uint32_t id : ids) h = Fold(h, pool.tier_resident_frames(tier, id));
    }
    // The third tier's residency, in total and per table.
    for (size_t i = 0; i <= ids.size(); ++i) h = Fold(h, uint64_t{0});
    for (const auto& table : real) {
      h = Fold(h, pool.ResidentFraction(*table));
    }
    h = Fnv1a(h, pool.last_table().data(), pool.last_table().size());
    h = Fold(h, pool.version());
  }
  // The trace reaches every enabled tier, not just the pool.
  EXPECT_GT(pool.stats().evictions, 0u);
  if (c.os_frames > 0) {
    EXPECT_GT(pool.stats().os_hits, 0u);
  }
  // Only the real tables' pages reach clock's OS tier, which admits until
  // full and never evicts: a tier smaller than they are ends the trace
  // full, so the digest pins the cap.
  uint64_t real_pages = 0;
  for (const auto& table : real) real_pages += table->num_pages();
  if (c.kind == EvictionKind::kClock && c.os_frames > 0 &&
      c.os_frames < real_pages) {
    EXPECT_EQ(pool.tier_resident_frames(BufferPool::kOsTier), c.os_frames);
  }
  EXPECT_EQ(h, c.digest) << "got 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PoolTraceGolden,
    ::testing::Values(
        TraceCase{EvictionKind::kClock, 0, 0xb9d03d91b1c2d538ull},
        TraceCase{EvictionKind::kClock, 64, 0x9c4176f754bcea92ull},
        TraceCase{EvictionKind::kClock, 40, 0x2ad131fdb5044fd7ull},
        TraceCase{EvictionKind::kLru, 0, 0xe8bfd4349e230a73ull},
        TraceCase{EvictionKind::kLru, 64, 0x15f051f04db5b257ull},
        TraceCase{EvictionKind::kPromotional, 0, 0xef05e14c71c32b43ull},
        TraceCase{EvictionKind::kPromotional, 64, 0xefd32c6e358e5269ull}));

// ---------------------------------------------------------------------------
// Extent sweeps: ScanTable equals a per-page TouchPage loop
// ---------------------------------------------------------------------------

/// One pool shape: policy x OS-tier size in frames (0 disables).
struct PoolShape {
  EvictionKind kind;
  uint64_t os_frames;
};

void PrintTo(const PoolShape& c, std::ostream* os) {
  *os << EvictionKindName(c.kind) << " os " << c.os_frames;
}

/// Everything a caller reads off a pool: every stats field, version(),
/// and the per-tier residency, in total and per table.
std::vector<uint64_t> Observe(const BufferPool& pool,
                              const std::vector<uint32_t>& ids) {
  const BufferPoolStats& s = pool.stats();
  std::vector<uint64_t> out = {s.hits,
                               s.misses,
                               s.evictions,
                               s.os_hits,
                               s.os_misses,
                               s.os_evictions,
                               static_cast<uint64_t>(s.io_time.nanos()),
                               pool.version()};
  for (size_t tier : {BufferPool::kPoolTier, BufferPool::kOsTier}) {
    out.push_back(pool.tier_resident_frames(tier));
    for (uint32_t id : ids) out.push_back(pool.tier_resident_frames(tier, id));
  }
  return out;
}

class ExtentSweepTest : public ::testing::TestWithParam<PoolShape> {};

/// Two pools take the same seeded trace: `extent` sweeps with ScanTable,
/// `per_page` replays each sweep as a TouchPage loop. The trace mixes
/// sweeps of tables 0.25x-4x the pool (several co-located in it, and some
/// cut short), random touches and fetches, MarkOsCached, Prewarm and
/// Clear. Every observable must agree after every op, and a final probe —
/// a flood of fresh pages, then every page of every table touched in turn
/// — must find the same replacement order in every tier.
TEST_P(ExtentSweepTest, ExtentSweepMatchesPerPage) {
  const PoolShape& c = GetParam();
  const PageLayout layout;
  std::vector<std::unique_ptr<Table>> real;
  real.push_back(MakeTable("r0", 12));
  real.push_back(MakeTable("r1", 40));
  // Three seeds over 32 frames, and one over 3 frames, where a sweep's
  // runs wrap the whole pool many times.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const uint64_t kFrames = seed == 4 ? 3 : 32;
    auto extent = BufferPool::SizedInFrames(kFrames, layout.page_size,
                                            DiskModel{}, c.kind, c.os_frames);
    auto per_page = BufferPool::SizedInFrames(kFrames, layout.page_size,
                                              DiskModel{}, c.kind,
                                              c.os_frames);
    const std::vector<std::pair<const char*, uint64_t>> logical = {
        {"t0", (kFrames + 3) / 4}, {"t1", kFrames}, {"t2", 3 * kFrames / 2},
        {"t3", 2 * kFrames}, {"t4", 3 * kFrames}, {"t5", 4 * kFrames}};
    std::vector<uint32_t> ids;
    std::vector<uint64_t> pages;
    for (const auto& [name, n] : logical) {
      ids.push_back(extent.InternTable(name));
      ASSERT_EQ(per_page.InternTable(name), ids.back());
      pages.push_back(n);
    }
    for (const auto& table : real) {
      ids.push_back(extent.InternTable(table->name()));
      ASSERT_EQ(per_page.InternTable(table->name()), ids.back());
      pages.push_back(table->num_pages());
    }
    uint64_t x = 0x2545F4914F6CDD1Dull * seed;
    auto next = [&x](uint64_t n) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return (x >> 33) % n;
    };
    auto sweep = [&](size_t t, uint64_t n) {
      extent.ScanTable(ids[t], n);
      for (uint64_t p = 0; p < n; ++p) per_page.TouchPage(ids[t], p);
    };
    for (int step = 0; step < 800; ++step) {
      const uint64_t op = next(100);
      if (op < 30) {
        const size_t t = next(ids.size());
        sweep(t, next(8) == 0 ? next(4 * kFrames + 1) : pages[t]);
      } else if (op < 40) {
        // Co-located epochs: two tables alternate two sweeps each.
        const size_t a = next(ids.size());
        const size_t b = next(ids.size());
        for (int round = 0; round < 2; ++round) {
          sweep(a, pages[a]);
          sweep(a, pages[a]);
          sweep(b, pages[b]);
          sweep(b, pages[b]);
        }
      } else if (op < 65) {
        const size_t t = next(ids.size());
        const uint64_t p = next(pages[t]);
        ASSERT_EQ(extent.TouchPage(ids[t], p), per_page.TouchPage(ids[t], p))
            << "step " << step;
      } else if (op < 80) {
        const Table& table = *real[next(real.size())];
        const uint64_t p = next(table.num_pages());
        auto a = extent.FetchPage(table, p);
        auto b = per_page.FetchPage(table, p);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(std::memcmp(*a, table.PageData(p), layout.page_size), 0);
      } else if (op < 87) {
        const Table& table = *real[next(real.size())];
        extent.MarkOsCached(table);
        per_page.MarkOsCached(table);
      } else if (op < 96) {
        const Table& table = *real[next(real.size())];
        const double fraction = 0.25 * static_cast<double>(1 + next(4));
        extent.Prewarm(table, fraction);
        per_page.Prewarm(table, fraction);
      } else {
        extent.Clear();
        per_page.Clear();
      }
      ASSERT_EQ(Observe(extent, ids), Observe(per_page, ids))
          << "seed " << seed << " step " << step << " op " << op;
      ASSERT_EQ(extent.last_table(), per_page.last_table())
          << "seed " << seed << " step " << step;
    }
    // The probe: fresh pages push every tier's replacement order through
    // the hierarchy, then each page's hit/miss and tier counters read it.
    const uint32_t fresh = extent.InternTable("probe");
    ASSERT_EQ(per_page.InternTable("probe"), fresh);
    ids.push_back(fresh);
    for (uint64_t p = 0; p < kFrames + c.os_frames / 2; ++p) {
      ASSERT_EQ(extent.TouchPage(fresh, p), per_page.TouchPage(fresh, p));
    }
    for (size_t t = 0; t + 1 < ids.size(); ++t) {
      for (uint64_t p = 0; p < pages[t]; ++p) {
        ASSERT_EQ(extent.TouchPage(ids[t], p), per_page.TouchPage(ids[t], p))
            << "seed " << seed << " table " << t << " page " << p;
        ASSERT_EQ(Observe(extent, ids), Observe(per_page, ids))
            << "seed " << seed << " table " << t << " page " << p;
      }
    }
    // The trace exercised what it claims to.
    EXPECT_GT(extent.stats().evictions, 0u);
    if (c.os_frames > 0 && c.kind != EvictionKind::kClock) {
      EXPECT_GT(extent.stats().os_hits, 0u);
      EXPECT_GT(extent.stats().os_evictions, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExtentSweepTest,
    ::testing::Values(PoolShape{EvictionKind::kClock, 0},
                      PoolShape{EvictionKind::kClock, 64},
                      PoolShape{EvictionKind::kLru, 0},
                      PoolShape{EvictionKind::kLru, 64},
                      PoolShape{EvictionKind::kPromotional, 0},
                      PoolShape{EvictionKind::kPromotional, 64}));

TEST(EvictionKindTest, ParseRoundTripsAndRejectsUnknown) {
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    auto parsed = ParseEvictionKind(EvictionKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseEvictionKind("mru").ok());
}

}  // namespace
}  // namespace dana::storage
