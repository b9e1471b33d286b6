#include "storage/buffer_pool.h"

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>

namespace dana::storage {

namespace {

/// Whether a pool policy's cursor demotes into the OS tier, which is then
/// exclusive and evicting: lru and promotional do. Clock's OS tier is
/// inclusive and admit-until-full, and touches skip it.
template <typename Cursor>
constexpr bool kTiered = !std::is_same_v<Cursor, ClockEvictionPolicy::Cursor>;

/// Longest miss extent, in pages: victims_ holds one extent at a time.
constexpr uint64_t kMaxExtent = 4096;

/// OS-tier pages for `os_cache_bytes` (BufferPool's constructor
/// semantics): an unlimited tier only under clock, which admits until
/// full; evicting tiers need a finite capacity.
uint64_t OsTierPages(uint64_t os_cache_bytes, uint32_t page_size,
                     EvictionKind eviction) {
  if (os_cache_bytes == UINT64_MAX) {
    return eviction == EvictionKind::kClock ? UINT64_MAX : 0;
  }
  if (os_cache_bytes == 0) return 0;
  return std::max<uint64_t>(1, os_cache_bytes / page_size);
}

}  // namespace

BufferPool::BufferPool(uint64_t capacity_bytes, uint32_t page_size,
                       DiskModel disk, uint64_t os_cache_bytes,
                       EvictionKind eviction)
    : page_size_(page_size),
      disk_(disk),
      eviction_(eviction),
      pool_(eviction, std::max<uint64_t>(1, capacity_bytes / page_size),
            PageTier::Admission::kEvict),
      os_tier_(eviction, OsTierPages(os_cache_bytes, page_size, eviction),
               eviction == EvictionKind::kClock
                   ? PageTier::Admission::kUntilFull
                   : PageTier::Admission::kEvict) {}

Result<const uint8_t*> BufferPool::FetchPage(const Table& table,
                                             uint64_t page_no) {
  if (table.layout().page_size != page_size_) {
    return Status::InvalidArgument(
        "table page size " + std::to_string(table.layout().page_size) +
        " != pool page size " + std::to_string(page_size_));
  }
  if (page_no >= table.num_pages()) {
    return Status::OutOfRange("page " + std::to_string(page_no) +
                              " past end of table " + table.name());
  }

  const uint32_t tid = TableId(table);
  const PageKey key{tid, page_no};
  last_table_id_ = tid;
  const uint32_t hit = pool_.Find(key);
  if (hit != PageIndex::kAbsent) {
    ++stats_.hits;
    pool_.WithCursor([hit](auto& pool) { pool.OnAccess(hit); });
    return table.PageData(page_no);
  }

  ++stats_.misses;
  // Sequential-scan misses amortize request latency over read-ahead chunks;
  // SeqReadTime of one page accounts for its bandwidth share plus its share
  // of a read-ahead request. Re-reads of OS-cache-resident pages skip the
  // device and pay a kernel memory copy instead.
  const bool inclusive = eviction_ == EvictionKind::kClock;
  // An inclusive (clock) OS tier keeps a hit page; an exclusive one
  // promotes it into the pool.
  if (inclusive ? os_tier_.Contains(key) : os_tier_.Erase(key)) {
    ++stats_.os_hits;
    stats_.io_time += dana::SimTime::Seconds(
        static_cast<double>(page_size_) / disk_.os_cache_bw);
  } else {
    // Clock counts an OS miss even with no OS tier, as the seed pools did.
    if (inclusive || os_tier_.enabled()) ++stats_.os_misses;
    stats_.io_time +=
        dana::SimTime::Seconds(static_cast<double>(page_size_) /
                               disk_.seq_read_bw) +
        disk_.request_latency / static_cast<double>(disk_.readahead_pages);
    // The page read from disk enters an inclusive tier with room; an
    // exclusive tier only receives pool victims.
    if (inclusive && !os_tier_.full()) {
      os_tier_.Insert(key);
      ++version_;
    }
  }

  pool_.WithCursor([&](auto& pool) { Install(pool, key); });
  return table.PageData(page_no);
}

template <typename Cursor>
uint64_t BufferPool::Sweep(Cursor& pool, uint32_t table_id, uint64_t first,
                           uint64_t last) {
  // The swept table's slots, grown once: installs below write them, and
  // evictions only clear entries, so the row never moves.
  uint32_t* const slots = pool_.Row(table_id, last);
  uint64_t hits = 0;
  uint64_t p = first;
  while (p < last) {
    const uint32_t hit = slots[p];
    if (hit != PageIndex::kAbsent) {
      ++hits;
      pool.OnAccess(hit);
      ++p;
      continue;
    }
    if (pool_.full()) {
      p = MissExtent(pool, table_id, p, last, slots);
      continue;
    }
    // Occupancy and eviction behave exactly like FetchPage, but no I/O
    // time is charged: the shared slot pools are residency ground truth.
    const PageKey key{table_id, p};
    if constexpr (kTiered<Cursor>) {
      if (os_tier_.Erase(key)) {
        ++stats_.os_hits;
      } else if (os_tier_.enabled()) {
        ++stats_.os_misses;
      }
    }
    Install(pool, key);
    ++p;
  }
  stats_.hits += hits;
  stats_.misses += last - first - hits;
  return hits;
}

template <typename Cursor>
uint64_t BufferPool::MissExtent(Cursor& pool, uint32_t table_id,
                                uint64_t first, uint64_t last,
                                uint32_t* slots) {
  const bool os_on = kTiered<Cursor> && os_tier_.enabled();
  // The tier does not change until the OS side runs.
  const std::span<const uint32_t> os_slots = os_tier_.Slots(table_id);
  auto os_holds = [&os_slots](uint64_t p) {
    return p < os_slots.size() && os_slots[p] != PageIndex::kAbsent;
  };
  const bool os_hit = os_on && os_holds(first);
  victims_.clear();
  // Pool side: every page of the extent takes the next victim off the
  // pool's replacement order.
  PageTier::Replacer replacer(pool_, pool);
  uint64_t p = first;
  // Capped so victims_ stays small for any table size.
  uint64_t end = std::min(last, first + kMaxExtent);
  for (; p < end && slots[p] == PageIndex::kAbsent; ++p) {
    if (os_on && os_holds(p) != os_hit) break;
    const PageKey victim = replacer.Replace(PageKey{table_id, p}, slots[p]);
    if (os_on) {
      victims_.push_back(victim);
      // A victim the sweep reaches later in this extent would by then be
      // back in the OS tier: end the extent before it.
      if (victim.table_id == table_id && victim.page_no > p &&
          victim.page_no < end) {
        end = victim.page_no;
      }
    }
  }
  const uint64_t k = p - first;
  replacer.Settle(table_id, k);
  stats_.evictions += k;
  version_ += k;
  // OS side, in the same order: the victims demote into the slots the
  // promoted pages leave, or into the tier's replacement order.
  if (os_on) {
    if (os_hit) {
      stats_.os_hits += k;
      os_tier_.Exchange(table_id, first, victims_);
    } else {
      stats_.os_misses += k;
      stats_.os_evictions += os_tier_.InsertRun(victims_);
    }
  }
  return p;
}

bool BufferPool::TouchPage(uint32_t table_id, uint64_t page_no) {
  last_table_id_ = table_id;
  return pool_.WithCursor([&](auto& pool) {
    return Sweep(pool, table_id, page_no, page_no + 1) == 1;
  });
}

void BufferPool::ScanTable(uint32_t table_id, uint64_t pages) {
  if (pages == 0) return;
  last_table_id_ = table_id;
  pool_.WithCursor([&](auto& pool) { Sweep(pool, table_id, 0, pages); });
}

double BufferPool::ResidentShare(uint32_t table_id, uint64_t pages) const {
  if (pages == 0) return 1.0;
  const double share = static_cast<double>(resident_frames(table_id)) /
                       static_cast<double>(pages);
  return share > 1.0 ? 1.0 : share;
}

uint64_t BufferPool::tier_resident_frames(size_t tier) const {
  switch (tier) {
    case kPoolTier:
      return pool_.resident();
    case kOsTier:
      return os_tier_.resident();
  }
  return 0;
}

uint64_t BufferPool::tier_resident_frames(size_t tier,
                                          uint32_t table_id) const {
  switch (tier) {
    case kPoolTier:
      return pool_.resident(table_id);
    case kOsTier:
      return os_tier_.resident(table_id);
  }
  return 0;
}

double BufferPool::TierResidentShare(size_t tier, uint32_t table_id,
                                     uint64_t pages) const {
  if (pages == 0) return tier == kPoolTier ? 1.0 : 0.0;
  const double share =
      static_cast<double>(tier_resident_frames(tier, table_id)) /
      static_cast<double>(pages);
  return share > 1.0 ? 1.0 : share;
}

template <typename Cursor>
void BufferPool::Install(Cursor& pool, const PageKey& key) {
  PageKey victim;
  if (pool_.Admit(pool, key, &victim)) {
    ++stats_.evictions;
    if constexpr (kTiered<Cursor>) {
      if (os_tier_.Insert(victim)) ++stats_.os_evictions;
    }
  }
  ++version_;
}

void BufferPool::Prewarm(const Table& table, double fraction) {
  fraction = std::min(std::max(fraction, 0.0), 1.0);
  const uint64_t want = static_cast<uint64_t>(
      fraction * static_cast<double>(table.num_pages()) + 0.5);
  const uint64_t n = std::min<uint64_t>(want, pool_.capacity());
  const uint32_t tid = TableId(table);
  last_table_id_ = tid;
  pool_.WithCursor([&](auto& pool) {
    for (uint64_t p = 0; p < n; ++p) {
      const PageKey key{tid, p};
      if (pool_.Contains(key)) continue;
      // A page entering the pool leaves an exclusive OS tier, as a fetch
      // promotes it.
      if (eviction_ != EvictionKind::kClock) os_tier_.Erase(key);
      Install(pool, key);
    }
  });
  MarkOsCached(table);
}

void BufferPool::MarkOsCached(const Table& table) {
  const uint32_t tid = TableId(table);
  const bool inclusive = eviction_ == EvictionKind::kClock;
  bool changed = false;
  for (uint64_t p = 0; p < table.num_pages() && os_tier_.enabled(); ++p) {
    const PageKey key{tid, p};
    if (inclusive) {
      // Admit-until-full: the tier takes new pages while it has room.
      if (os_tier_.full()) break;
      if (os_tier_.Contains(key)) continue;
    } else if (pool_.Contains(key)) {
      // Exclusive tiers: pages the pool already holds stay out of the OS
      // tier; the rest stream in, displacing the tier's victims.
      continue;
    }
    if (os_tier_.Insert(key)) ++stats_.os_evictions;
    changed = true;
  }
  // OS-tier contents are pricing state: memoized sweeps must not survive
  // a tier reshape they did not see.
  if (changed) ++version_;
}

double BufferPool::ResidentFraction(const Table& table) const {
  if (table.num_pages() == 0) return 1.0;
  const uint32_t tid = names_.Find(table.name());
  if (tid == dana::Interner::kInvalidId) return 0.0;
  uint64_t resident = 0;
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    if (pool_.Contains(PageKey{tid, p})) ++resident;
  }
  return static_cast<double>(resident) /
         static_cast<double>(table.num_pages());
}

void BufferPool::Clear() {
  pool_.Clear();
  os_tier_.Clear();
  last_table_id_ = dana::Interner::kInvalidId;
  ++version_;
}

void BufferPool::PublishTo(obs::MetricRegistry* metrics,
                           const std::string& prefix) const {
  if (metrics == nullptr) return;
  obs::SetGauge(metrics, prefix + ".hits", static_cast<double>(stats_.hits));
  obs::SetGauge(metrics, prefix + ".misses",
                static_cast<double>(stats_.misses));
  obs::SetGauge(metrics, prefix + ".evictions",
                static_cast<double>(stats_.evictions));
  obs::SetGauge(metrics, prefix + ".hit_rate", stats_.HitRate());
  obs::SetGauge(metrics, prefix + ".io_time_s", stats_.io_time.seconds());
  obs::SetGauge(metrics, prefix + ".resident_frames",
                static_cast<double>(resident_frames()));
  // Per-tier view: tier0 is the pool itself, tier1 the OS page-cache
  // tier.
  obs::SetGauge(metrics, prefix + ".tier0.hits",
                static_cast<double>(stats_.hits));
  obs::SetGauge(metrics, prefix + ".tier0.evictions",
                static_cast<double>(stats_.evictions));
  obs::SetGauge(metrics, prefix + ".tier0.resident_frames",
                static_cast<double>(resident_frames()));
  obs::SetGauge(metrics, prefix + ".tier1.hits",
                static_cast<double>(stats_.os_hits));
  obs::SetGauge(metrics, prefix + ".tier1.misses",
                static_cast<double>(stats_.os_misses));
  obs::SetGauge(metrics, prefix + ".tier1.evictions",
                static_cast<double>(stats_.os_evictions));
  obs::SetGauge(metrics, prefix + ".tier1.resident_frames",
                static_cast<double>(tier_resident_frames(kOsTier)));
}

}  // namespace dana::storage
