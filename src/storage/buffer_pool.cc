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
      os_tier_(eviction, OsTierPages(os_cache_bytes, page_size, eviction)) {
  uint64_t n = capacity_bytes / page_size;
  if (n == 0) n = 1;
  frames_.resize(n);
  switch (eviction_) {
    case EvictionKind::kClock:
      pool_clock_ = std::make_unique<ClockEvictionPolicy>(n);
      break;
    case EvictionKind::kLru:
      pool_lru_ = std::make_unique<LruEvictionPolicy>(n);
      break;
    case EvictionKind::kPromotional:
      pool_promotional_ = std::make_unique<PromotionalEvictionPolicy>(n);
      break;
  }
}

template <typename Fn>
decltype(auto) BufferPool::WithCursor(Fn&& fn) {
  auto open = [&](auto& policy) -> decltype(auto) {
    typename std::remove_reference_t<decltype(policy)>::Cursor cursor(policy);
    return fn(cursor);
  };
  switch (eviction_) {
    case EvictionKind::kClock:
      return open(*pool_clock_);
    case EvictionKind::kLru:
      return open(*pool_lru_);
    case EvictionKind::kPromotional:
      break;
  }
  return open(*pool_promotional_);
}

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

  const uint32_t tid = InternTable(table.name());
  const Key key{tid, page_no};
  last_table_id_ = tid;
  const uint32_t hit = index_.Find(key);
  if (hit != PageIndex::kAbsent) {
    ++stats_.hits;
    WithCursor([hit](auto& pool) { pool.OnAccess(hit); });
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

  WithCursor([&](auto& pool) { Install(pool, AllocFrame(pool), key); });
  return table.PageData(page_no);
}

template <typename Cursor>
uint64_t BufferPool::Sweep(Cursor& pool, uint32_t table_id, uint64_t first,
                           uint64_t last) {
  // The swept table's slots, grown once: installs below write them
  // directly, and evictions only clear entries, so the row never moves.
  uint32_t* const slots = index_.Row(table_id, last);
  if (table_id >= per_table_frames_.size()) {
    per_table_frames_.resize(table_id + 1, 0);
  }
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
    if (resident_frames_ == frames_.size()) {
      p = MissExtent(pool, table_id, p, last, slots);
      continue;
    }
    // Occupancy and eviction behave exactly like FetchPage, but no I/O
    // time is charged: the shared slot pools are residency ground truth.
    const Key key{table_id, p};
    if constexpr (kTiered<Cursor>) {
      if (os_tier_.Erase(key)) {
        ++stats_.os_hits;
      } else if (os_tier_.enabled()) {
        ++stats_.os_misses;
      }
    }
    Install(pool, AllocFrame(pool), key);
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
  // pool's replacement order, which the cursor walks run by run; the
  // victims' index row and frame count are looked up once per run of one
  // table.
  uint32_t victim_table = dana::Interner::kInvalidId;
  uint32_t* victim_row = nullptr;
  uint64_t victim_count = 0;
  uint64_t p = first;
  // Capped so victims_ stays small for any table size.
  uint64_t end = std::min(last, first + kMaxExtent);
  // Victims known (Cursor::RunAfter) to follow `idx` in slot order.
  size_t run = 0;
  size_t idx = 0;
  for (; p < end && slots[p] == PageIndex::kAbsent; ++p) {
    if (os_on && os_holds(p) != os_hit) break;
    if (run > 0) {
      pool.TakeNext(++idx);
      --run;
    } else {
      idx = pool.PickVictim();
      pool.OnInsert(idx);
      run = pool.RunAfter(idx, kRunProbe);
    }
    Key& frame = frames_[idx];
    const Key victim = frame;
    if (victim.table_id != victim_table) {
      if (victim_count > 0) per_table_frames_[victim_table] -= victim_count;
      victim_table = victim.table_id;
      victim_row = index_.Row(victim_table, 0);
      victim_count = 0;
    }
    victim_row[victim.page_no] = PageIndex::kAbsent;
    ++victim_count;
    if (os_on) {
      victims_.push_back(victim);
      // A victim the sweep reaches later in this extent would by then be
      // back in the OS tier: end the extent before it.
      if (victim.table_id == table_id && victim.page_no > p &&
          victim.page_no < end) {
        end = victim.page_no;
      }
    }
    frame = Key{table_id, p};
    slots[p] = static_cast<uint32_t>(idx);
  }
  const uint64_t k = p - first;
  if (victim_count > 0) per_table_frames_[victim_table] -= victim_count;
  per_table_frames_[table_id] += k;
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
  return WithCursor([&](auto& pool) {
    return Sweep(pool, table_id, page_no, page_no + 1) == 1;
  });
}

void BufferPool::ScanTable(uint32_t table_id, uint64_t pages) {
  if (pages == 0) return;
  last_table_id_ = table_id;
  WithCursor([&](auto& pool) { Sweep(pool, table_id, 0, pages); });
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
      return resident_frames_;
    case kOsTier:
      return os_tier_.resident();
  }
  return 0;
}

uint64_t BufferPool::tier_resident_frames(size_t tier,
                                          uint32_t table_id) const {
  switch (tier) {
    case kPoolTier:
      return resident_frames(table_id);
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
inline size_t BufferPool::AllocFrame(Cursor& pool) {
  // During fill, frames are handed out in index order with no policy
  // involvement. This is the seed clock behaviour bit for bit: evictions
  // immediately reinstall, so occupancy is monotone between Clears and the
  // unfilled frames form a contiguous tail the hand always sat at; after
  // the exact fill the seed hand wrapped to 0, where the policy's starts.
  if (resident_frames_ < frames_.size()) {
    ++resident_frames_;
    return fill_cursor_++;
  }
  const size_t idx = pool.PickVictim();
  const Key victim = frames_[idx];
  index_.Erase(victim);
  --per_table_frames_[victim.table_id];
  ++stats_.evictions;
  if constexpr (kTiered<Cursor>) {
    if (os_tier_.Insert(victim)) ++stats_.os_evictions;
  }
  return idx;
}

template <typename Cursor>
inline void BufferPool::Install(Cursor& pool, size_t idx, const Key& key) {
  frames_[idx] = key;
  pool.OnInsert(idx);
  if (key.table_id >= per_table_frames_.size()) {
    per_table_frames_.resize(key.table_id + 1, 0);
  }
  ++per_table_frames_[key.table_id];
  index_.Set(key, static_cast<uint32_t>(idx));
  ++version_;
}

void BufferPool::Prewarm(const Table& table, double fraction) {
  fraction = std::min(std::max(fraction, 0.0), 1.0);
  const uint64_t want = static_cast<uint64_t>(
      fraction * static_cast<double>(table.num_pages()) + 0.5);
  const uint64_t n = std::min<uint64_t>(want, frames_.size());
  const uint32_t tid = InternTable(table.name());
  last_table_id_ = tid;
  WithCursor([&](auto& pool) {
    for (uint64_t p = 0; p < n; ++p) {
      const Key key{tid, p};
      if (!index_.Contains(key)) Install(pool, AllocFrame(pool), key);
    }
  });
  MarkOsCached(table);
}

void BufferPool::MarkOsCached(const Table& table) {
  const uint32_t tid = InternTable(table.name());
  const bool inclusive = eviction_ == EvictionKind::kClock;
  bool changed = false;
  for (uint64_t p = 0; p < table.num_pages() && os_tier_.enabled(); ++p) {
    const Key key{tid, p};
    if (inclusive) {
      // Admit-until-full: the tier takes new pages while it has room.
      if (os_tier_.full()) break;
      if (os_tier_.Contains(key)) continue;
    } else if (index_.Contains(key)) {
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
    if (index_.Contains(Key{tid, p})) ++resident;
  }
  return static_cast<double>(resident) /
         static_cast<double>(table.num_pages());
}

void BufferPool::Clear() {
  index_.Clear();
  os_tier_.Clear();
  fill_cursor_ = 0;
  switch (eviction_) {
    case EvictionKind::kClock:
      pool_clock_->Reset();
      break;
    case EvictionKind::kLru:
      pool_lru_->Reset();
      break;
    case EvictionKind::kPromotional:
      pool_promotional_->Reset();
      break;
  }
  resident_frames_ = 0;
  // Ids outlive the pages they name: only the per-id counts reset.
  per_table_frames_.assign(per_table_frames_.size(), 0);
  last_table_id_ = dana::Interner::kInvalidId;
  ++version_;
}

BufferPoolGroup::BufferPoolGroup(uint64_t capacity_bytes_per_pool,
                                 uint32_t page_size, DiskModel disk,
                                 uint64_t os_cache_bytes_per_pool,
                                 EvictionKind eviction)
    : capacity_bytes_(capacity_bytes_per_pool),
      page_size_(page_size),
      disk_(disk),
      os_cache_bytes_(os_cache_bytes_per_pool),
      eviction_(eviction) {
  Resize(1);
}

void BufferPoolGroup::Resize(size_t n) {
  if (n == 0) n = 1;
  while (pools_.size() < n) {
    pools_.push_back(std::make_unique<BufferPool>(
        capacity_bytes_, page_size_, disk_, os_cache_bytes_, eviction_));
  }
}

BufferPool* BufferPoolGroup::pool(size_t i) {
  if (i >= pools_.size()) Resize(i + 1);
  return pools_[i].get();
}

BufferPoolStats BufferPoolGroup::Rollup() const {
  BufferPoolStats total;
  for (const auto& p : pools_) {
    const BufferPoolStats& s = p->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.os_hits += s.os_hits;
    total.os_misses += s.os_misses;
    total.os_evictions += s.os_evictions;
    total.io_time += s.io_time;
  }
  return total;
}

uint64_t BufferPoolGroup::TotalResidentFrames() const {
  uint64_t total = 0;
  for (const auto& p : pools_) total += p->resident_frames();
  return total;
}

void BufferPoolGroup::ClearAll() {
  for (const auto& p : pools_) {
    p->Clear();
    p->ResetStats();
  }
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
                static_cast<double>(resident_frames_));
  // Per-tier view: tier0 is the pool itself, tier1 the OS page-cache
  // tier.
  obs::SetGauge(metrics, prefix + ".tier0.hits",
                static_cast<double>(stats_.hits));
  obs::SetGauge(metrics, prefix + ".tier0.evictions",
                static_cast<double>(stats_.evictions));
  obs::SetGauge(metrics, prefix + ".tier0.resident_frames",
                static_cast<double>(resident_frames_));
  obs::SetGauge(metrics, prefix + ".tier1.hits",
                static_cast<double>(stats_.os_hits));
  obs::SetGauge(metrics, prefix + ".tier1.misses",
                static_cast<double>(stats_.os_misses));
  obs::SetGauge(metrics, prefix + ".tier1.evictions",
                static_cast<double>(stats_.os_evictions));
  obs::SetGauge(metrics, prefix + ".tier1.resident_frames",
                static_cast<double>(tier_resident_frames(kOsTier)));
}

void BufferPoolGroup::PublishTo(obs::MetricRegistry* metrics,
                                const std::string& prefix) const {
  if (metrics == nullptr) return;
  const BufferPoolStats rollup = Rollup();
  obs::SetGauge(metrics, prefix + ".hits", static_cast<double>(rollup.hits));
  obs::SetGauge(metrics, prefix + ".misses",
                static_cast<double>(rollup.misses));
  obs::SetGauge(metrics, prefix + ".evictions",
                static_cast<double>(rollup.evictions));
  obs::SetGauge(metrics, prefix + ".hit_rate", rollup.HitRate());
  obs::SetGauge(metrics, prefix + ".io_time_s", rollup.io_time.seconds());
  obs::SetGauge(metrics, prefix + ".resident_frames",
                static_cast<double>(TotalResidentFrames()));
  for (size_t i = 0; i < pools_.size(); ++i) {
    pools_[i]->PublishTo(metrics,
                         prefix + ".slot" + std::to_string(i));
  }
}

}  // namespace dana::storage
