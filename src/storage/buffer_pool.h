#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/intern.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/eviction_policy.h"
#include "storage/table.h"

namespace dana::storage {

/// Hit/miss statistics of a BufferPool, per tier. `hits`/`misses`/
/// `evictions` are the buffer-pool (tier 0) counters; the `os_*` fields
/// cover the modeled kernel page cache (tier 1): an `os_hit` is a pool miss
/// served at OS-cache speed, an `os_miss` is a pool miss the OS tier did
/// not hold.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t os_hits = 0;
  uint64_t os_misses = 0;
  uint64_t os_evictions = 0;
  /// Accumulated simulated disk time spent servicing misses.
  dana::SimTime io_time;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Fixed-capacity page cache over the modeled kernel page cache — the
/// paper's shared_buffers above RAM. Both levels are PageTiers:
///
///   tier 0: the buffer pool's frames (pool_), an evicting PageTier whose
///           victims a clock / lru / promotional policy picks;
///   tier 1: the OS page cache (os_tier_), a PageTier of the pool's
///           EvictionKind. Under clock it is *inclusive* and
///           admit-until-full: every page read from disk is admitted while
///           the tier has room, and nothing ever leaves it (bit-compatible
///           with the seed pools). Under lru/promotional it is *exclusive*
///           and evicting: pool victims demote into it, and an OS hit
///           promotes the page back.
///
/// The pool keeps the hierarchy rules — inclusion or exclusion, promotion,
/// demotion, I/O charging and statistics — and leaves each level's
/// residency and replacement order to its tier.
///
/// This is the structure Striders interface with in the paper (Figure 2):
/// the RDBMS executor fills the pool from disk and the FPGA reads resident
/// pages directly. All systems in the reproduction (MADlib CPU engines and
/// the DAnA accelerator) fetch pages through the same pool so that I/O time
/// and warm/cold behaviour are identical across systems. The simulator's
/// Table is the disk, so a frame records which page it holds, not a copy
/// of its bytes: FetchPage reads the page in place.
///
/// Pages are identified by (table name, page number) — catalog semantics:
/// two Table objects with the same name alias the same cached pages. This
/// is what lets one pool be shared across a slot's tables (the scheduler's
/// physical residency ground truth) while per-workload pools keep their
/// original behaviour, and it gives the pool exact per-table frame
/// accounting (resident_frames(table), tier_resident_frames(tier, table)).
///
/// Internally table names are interned into dense per-pool ids (InternTable)
/// and every frame, page key, and per-table counter is integer-keyed. Every
/// tier finds pages through a direct-mapped PageIndex (one array per table,
/// indexed by page number), so a touch indexes two arrays and hashes
/// nothing; the index grows to the highest page number touched per table.
/// The string-facing APIs remain as thin shims that intern (mutating calls)
/// or look up (const calls) the name once per call; per-page loops like
/// ScanTable pay the string exactly once per sweep. The Table-taking calls
/// (FetchPage, Prewarm, MarkOsCached) resolve the id through TableId, which
/// hashes a table's name only when the table differs from the last one's.
/// Ids are stable for the pool's lifetime — Clear() drops pages, not the
/// name table — so callers may cache them across runs.
///
/// Sequential sweeps (ScanTable) leave the tiers in a few long runs — one
/// table's consecutive pages in consecutive replacement positions — and
/// the next sweep is applied run by run over that state (see ScanTable).
/// TouchPage is a one-page sweep through the same code.
class BufferPool {
 public:
  /// Tier indices for the per-tier accessors and `tier<j>.*` gauges.
  static constexpr size_t kPoolTier = 0;
  static constexpr size_t kOsTier = 1;

  /// Pool of `capacity_bytes / page_size` frames; `disk` supplies miss
  /// costs. Misses for pages held by the OS tier are served at the
  /// OS-page-cache rate instead of disk speed, modeling the kernel cache
  /// below the pool. `os_cache_bytes` semantics: UINT64_MAX is an unlimited
  /// tier under clock (and disables the tier under lru/promotional, which
  /// need a finite capacity); 0 disables the tier; anything else caps it at
  /// that many bytes of distinct pages.
  BufferPool(uint64_t capacity_bytes, uint32_t page_size, DiskModel disk,
             uint64_t os_cache_bytes = UINT64_MAX,
             EvictionKind eviction = EvictionKind::kClock);

  /// Pool sized directly in frames — the shared per-slot residency pools
  /// are specified this way (scale-normalized units, not bytes).
  static BufferPool SizedInFrames(uint64_t frames, uint32_t page_size,
                                  DiskModel disk) {
    return BufferPool(frames * static_cast<uint64_t>(page_size), page_size,
                      disk);
  }
  /// Frame-sized pool with an explicit policy and OS tier; `os_frames` of
  /// 0 disables the tier.
  static BufferPool SizedInFrames(uint64_t frames, uint32_t page_size,
                                  DiskModel disk, EvictionKind eviction,
                                  uint64_t os_frames) {
    const uint64_t ps = page_size;
    return BufferPool(frames * ps, page_size, disk, os_frames * ps, eviction);
  }

  /// Dense id of logical table `name` in this pool, interning it on first
  /// sight. Stable for the pool's lifetime; the id-taking overloads below
  /// skip the per-call name lookup entirely.
  uint32_t InternTable(std::string_view name) {
    return names_.Intern(name);
  }

  /// InternTable(table.name()), remembered for the last table asked
  /// about: a run of calls for one table hashes its name once.
  uint32_t TableId(const Table& table) {
    if (table.serial() != last_serial_) {
      last_serial_ = table.serial();
      last_serial_id_ = InternTable(table.name());
    }
    return last_serial_id_;
  }

  /// References page `page_no` of `table`, installing it (and charging its
  /// read from the OS tier or the modeled disk) on a miss, and returns the
  /// page's bytes: `table.PageData(page_no)`, read in place. The table is
  /// the disk; the pool tracks which pages are resident and what reading
  /// them costs, and copies no page image. The pointer stays valid for the
  /// table's lifetime, whatever the pool evicts.
  dana::Result<const uint8_t*> FetchPage(const Table& table, uint64_t page_no);

  /// Residency probe for shared (cross-table) pools: page `page_no` of
  /// logical table `table` is referenced on a hit and installed — evicting
  /// a victim under capacity pressure, exactly like FetchPage — on a miss.
  /// No I/O time is charged (the caller prices I/O from measured service
  /// profiles; the pool's job here is to be the occupancy/eviction ground
  /// truth).
  /// Hit/miss/eviction counters still advance. Under lru/promotional a
  /// miss consults the OS tier: an OS hit promotes the page into the pool
  /// and the displaced victim demotes into the tier.
  /// Returns true on a (pool) hit.
  bool TouchPage(uint32_t table_id, uint64_t page_no);
  bool TouchPage(const std::string& table, uint64_t page_no) {
    return TouchPage(InternTable(table), page_no);
  }

  /// One full sequential sweep of a logical table of `pages` pages through
  /// the pool — the cache footprint of one training epoch's Strider scan.
  /// The result is exactly that of TouchPage(table_id, p) for p = 0, 1,
  /// ..., pages - 1: every counter, residency, version() bump, the final
  /// replacement order and clock hand. A table larger than the pool ends
  /// with its trailing pool-sized window resident; co-located tables are
  /// evicted only under install pressure.
  ///
  /// The sweep is applied an extent at a time: a run of pages that all
  /// miss and that the OS tier all holds or all lacks takes its victims
  /// off the pool's replacement order in one pass (clock's hand clears a
  /// run of reference bits at once; LRU splices a recency run), then
  /// demotes them into the OS tier in one pass, with each index row looked
  /// up once per run of one table's pages. Hits stay per page but only
  /// extend the pending recency run. A pool still filling takes the
  /// per-page path.
  void ScanTable(uint32_t table_id, uint64_t pages);
  void ScanTable(const std::string& table, uint64_t pages) {
    ScanTable(InternTable(table), pages);
  }

  /// Fraction of a `pages`-page logical table currently resident in the
  /// buffer pool (tier 0), in [0, 1]: resident_frames(table) / pages,
  /// clamped.
  double ResidentShare(uint32_t table_id, uint64_t pages) const;
  double ResidentShare(const std::string& table, uint64_t pages) const {
    return ResidentShare(names_.Find(table), pages);
  }

  /// Fraction of a `pages`-page logical table held by `tier`
  /// (kPoolTier/kOsTier), clamped to [0, 1]. Under lru/promotional the
  /// tiers are exclusive, so the per-tier shares of one table sum to at
  /// most 1; under clock the OS tier is inclusive of the pool.
  double TierResidentShare(size_t tier, uint32_t table_id,
                           uint64_t pages) const;
  double TierResidentShare(size_t tier, const std::string& table,
                           uint64_t pages) const {
    return TierResidentShare(tier, names_.Find(table), pages);
  }

  /// Loads the leading `fraction` of `table`'s pages (capped by the pool
  /// size) without charging I/O time — models a previously-run query having
  /// left that share of the table's working set resident. The default warms
  /// everything the pool can hold. Also marks the table OS-cache resident.
  void Prewarm(const Table& table, double fraction = 1.0);

  /// Marks `table`'s pages resident in the OS page cache without touching
  /// the pool: a prior query streamed them. Under clock the tier admits
  /// them until full; under lru/promotional it evicts, so a saturated tier
  /// rotates pages in. Bumps version(): the OS tier is pricing state.
  void MarkOsCached(const Table& table);

  /// Fraction of `table` currently resident.
  double ResidentFraction(const Table& table) const;

  /// Drops all cached pages in every tier and resets the policy state.
  /// Interned table ids survive — they name tables, not pages.
  void Clear();

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats(); }

  /// Frames currently holding a valid page. Unlike stats(), this is pool
  /// *state*, not an event counter: ResetStats() does not touch it, only
  /// Clear() and evictions do. Never exceeds num_frames().
  uint64_t resident_frames() const { return pool_.resident(); }
  /// Frames currently holding pages of `table` — the per-table partition
  /// of resident_frames(). This is the physical residency signal the
  /// scheduler's executor prices every dispatch from when a slot's tables
  /// share one pool.
  uint64_t resident_frames(uint32_t table_id) const {
    return pool_.resident(table_id);
  }
  uint64_t resident_frames(const std::string& table) const {
    return resident_frames(names_.Find(table));
  }

  /// Pages currently held by `tier`: tier 0 is resident_frames(), tier 1
  /// the OS page-cache tier.
  uint64_t tier_resident_frames(size_t tier) const;
  /// The per-table partition of tier_resident_frames(tier).
  uint64_t tier_resident_frames(size_t tier, uint32_t table_id) const;
  uint64_t tier_resident_frames(size_t tier, const std::string& table) const {
    return tier_resident_frames(tier, names_.Find(table));
  }

  /// Name of the table the pool most recently served (FetchPage, TouchPage,
  /// or Prewarm); empty for a fresh or cleared pool. In shared-pool mode
  /// this is the table whose sweep last reshaped the cache.
  const std::string& last_table() const {
    static const std::string kNone;
    return last_table_id_ == dana::Interner::kInvalidId
               ? kNone
               : names_.Name(last_table_id_);
  }

  /// Monotone counter bumped whenever cached contents change in *any*
  /// tier — a page install, a Clear, or an OS-tier mutation
  /// (MarkOsCached, the Fetch-path OS admission). Two reads returning the
  /// same value bracket a window in which every tier held the same pages.
  /// Hits do not bump it: under clock they only set reference bits, but
  /// under LRU and promotional they reorder recency, so an unchanged
  /// version does not mean an unchanged replacement order (see the
  /// executor's slice memoization).
  uint64_t version() const { return version_; }

  uint64_t num_frames() const { return pool_.capacity(); }
  uint32_t page_size() const { return page_size_; }
  const DiskModel& disk() const { return disk_; }

  /// Publishes this pool's counters and occupancy as gauges under
  /// `<prefix>.` (hits, misses, evictions, hit_rate, io_time_s,
  /// resident_frames) plus per-tier gauges under `<prefix>.tier<j>.*`; a
  /// null registry is a no-op.
  void PublishTo(obs::MetricRegistry* metrics,
                 const std::string& prefix) const;

 private:
  /// Touches of pages [first, last) of `table_id` in order through the
  /// pool tier's cursor, each with TouchPage's semantics; returns the
  /// number of pool hits. Misses go through MissExtent when the pool is
  /// full, else one page at a time. TouchPage is the one-page sweep.
  template <typename Cursor>
  uint64_t Sweep(Cursor& pool, uint32_t table_id, uint64_t first,
                 uint64_t last);

  /// Pool misses of pages [first, e) of `table_id` that the OS tier either
  /// all holds or all lacks, with the pool full; returns e (> first). The
  /// pool side runs first, then the victims demote in the same order. The
  /// extent ends before any page of its own that it evicts, so no demotion
  /// changes how a later page of it classifies, and the result is the
  /// per-page one.
  template <typename Cursor>
  uint64_t MissExtent(Cursor& pool, uint32_t table_id, uint64_t first,
                      uint64_t last, uint32_t* slots);

  /// Installs `key`, absent from the pool, through the pool tier's cursor:
  /// a new frame while the pool fills (frames fill in index order, as the
  /// seed clock's did), else the policy's victim's, which under
  /// lru/promotional demotes into the OS tier.
  template <typename Cursor>
  void Install(Cursor& pool, const PageKey& key);

  uint32_t page_size_;
  DiskModel disk_;
  EvictionKind eviction_ = EvictionKind::kClock;
  BufferPoolStats stats_;
  /// Interned table names; ids key both tiers' pages and counts.
  dana::Interner names_;
  /// TableId's cache: the last table's serial (which, unlike its address,
  /// no later table reuses) and id.
  uint64_t last_serial_ = 0;  // no table has serial 0
  uint32_t last_serial_id_ = dana::Interner::kInvalidId;
  uint32_t last_table_id_ = dana::Interner::kInvalidId;
  uint64_t version_ = 0;
  /// The buffer pool's frames (always evicting).
  PageTier pool_;
  /// The OS page-cache tier (capacity 0 when disabled).
  PageTier os_tier_;
  /// MissExtent's working buffer: the pool victims of the current extent.
  std::vector<PageKey> victims_;
};

}  // namespace dana::storage
