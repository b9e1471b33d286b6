#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace dana::storage {

BufferPool::BufferPool(uint64_t capacity_bytes, uint32_t page_size,
                       DiskModel disk, uint64_t os_cache_bytes,
                       EvictionKind eviction, uint64_t ssd_cache_bytes)
    : page_size_(page_size), disk_(disk), eviction_(eviction) {
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
  if (eviction_ == EvictionKind::kClock) {
    // Legacy OS set: UINT64_MAX = unlimited, 0 = disabled.
    if (os_cache_bytes == 0) {
      os_cache_pages_ = 0;
    } else if (os_cache_bytes != UINT64_MAX) {
      os_cache_pages_ = std::max<uint64_t>(1, os_cache_bytes / page_size);
    }
  } else {
    // Evicting tiers need a finite capacity; the legacy "unlimited"
    // default means no OS tier here.
    const uint64_t os_pages =
        (os_cache_bytes == UINT64_MAX || os_cache_bytes == 0)
            ? 0
            : std::max<uint64_t>(1, os_cache_bytes / page_size);
    os_tier_ = PageTier(eviction_, os_pages);
    const uint64_t ssd_pages =
        ssd_cache_bytes == 0
            ? 0
            : std::max<uint64_t>(1, ssd_cache_bytes / page_size);
    ssd_tier_ = PageTier(eviction_, ssd_pages);
  }
}

void BufferPool::PoolOnInsert(size_t idx) {
  switch (eviction_) {
    case EvictionKind::kClock:
      pool_clock_->OnInsert(idx);
      break;
    case EvictionKind::kLru:
      pool_lru_->OnInsert(idx);
      break;
    case EvictionKind::kPromotional:
      pool_promotional_->OnInsert(idx);
      break;
  }
}

void BufferPool::PoolOnAccess(size_t idx) {
  switch (eviction_) {
    case EvictionKind::kClock:
      pool_clock_->OnAccess(idx);
      break;
    case EvictionKind::kLru:
      pool_lru_->OnAccess(idx);
      break;
    case EvictionKind::kPromotional:
      pool_promotional_->OnAccess(idx);
      break;
  }
}

size_t BufferPool::PoolPickVictim() {
  switch (eviction_) {
    case EvictionKind::kClock:
      return pool_clock_->PickVictim();
    case EvictionKind::kLru:
      return pool_lru_->PickVictim();
    case EvictionKind::kPromotional:
      return pool_promotional_->PickVictim();
  }
  return 0;
}

void BufferPool::DemoteToOs(const Key& key) {
  if (!os_tier_.enabled()) return;
  PageKey displaced;
  if (os_tier_.Insert(key, &displaced)) {
    ++stats_.os_evictions;
    if (ssd_tier_.enabled()) {
      PageKey dropped;
      if (ssd_tier_.Insert(displaced, &dropped)) ++stats_.ssd_evictions;
    }
  }
}

bool BufferPool::OsCached(const Key& key) const {
  if (key.table_id >= os_cached_.size()) return false;
  const std::vector<uint64_t>& bits = os_cached_[key.table_id];
  const uint64_t word = key.page_no / 64;
  return word < bits.size() && ((bits[word] >> (key.page_no % 64)) & 1) != 0;
}

void BufferPool::AdmitOsCached(const Key& key) {
  if (key.table_id >= os_cached_.size()) {
    os_cached_.resize(key.table_id + 1);
    os_per_table_.resize(key.table_id + 1, 0);
  }
  std::vector<uint64_t>& bits = os_cached_[key.table_id];
  const uint64_t word = key.page_no / 64;
  if (word >= bits.size()) bits.resize(word + 1, 0);
  bits[word] |= uint64_t{1} << (key.page_no % 64);
  ++os_cached_count_;
  ++os_per_table_[key.table_id];
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
    Frame& frame = frames_[hit];
    PoolOnAccess(hit);
    // A residency probe (TouchPage) may have installed this page without
    // an image; a data-consuming fetch materializes it now, for free (the
    // page is resident — only the simulator's host copy was elided).
    if (!frame.data) {
      frame.data = std::make_unique<uint8_t[]>(page_size_);
      std::memcpy(frame.data.get(), table.PageData(page_no), page_size_);
    }
    return static_cast<const uint8_t*>(frame.data.get());
  }

  ++stats_.misses;
  // Sequential-scan misses amortize request latency over read-ahead chunks;
  // SeqReadTime of one page accounts for its bandwidth share plus its share
  // of a read-ahead request. Re-reads of OS-cache-resident pages skip the
  // device and pay a kernel memory copy instead; SSD-tier pages pay the
  // capacity device's bandwidth.
  if (eviction_ == EvictionKind::kClock) {
    if (OsCached(key)) {
      ++stats_.os_hits;
      stats_.io_time += dana::SimTime::Seconds(
          static_cast<double>(page_size_) / disk_.os_cache_bw);
    } else {
      ++stats_.os_misses;
      stats_.io_time +=
          dana::SimTime::Seconds(static_cast<double>(page_size_) /
                                 disk_.seq_read_bw) +
          disk_.request_latency /
              static_cast<double>(disk_.readahead_pages);
      if (os_cached_count_ < os_cache_pages_) {
        AdmitOsCached(key);
        ++version_;
      }
    }
  } else if (os_tier_.Erase(key)) {
    // Exclusive hierarchy: the OS-tier hit promotes into the pool.
    ++stats_.os_hits;
    stats_.io_time += dana::SimTime::Seconds(
        static_cast<double>(page_size_) / disk_.os_cache_bw);
  } else {
    if (os_tier_.enabled()) ++stats_.os_misses;
    if (ssd_tier_.Erase(key)) {
      ++stats_.ssd_hits;
      stats_.io_time += dana::SimTime::Seconds(
          static_cast<double>(page_size_) / disk_.ssd_read_bw);
    } else {
      stats_.io_time +=
          dana::SimTime::Seconds(static_cast<double>(page_size_) /
                                 disk_.seq_read_bw) +
          disk_.request_latency /
              static_cast<double>(disk_.readahead_pages);
    }
  }

  const size_t idx = AllocFrame();
  Install(idx, tid, page_no, table.PageData(page_no));
  return static_cast<const uint8_t*>(frames_[idx].data.get());
}

bool BufferPool::TouchPage(uint32_t table_id, uint64_t page_no) {
  const Key key{table_id, page_no};
  last_table_id_ = table_id;
  const uint32_t hit = index_.Find(key);
  if (hit != PageIndex::kAbsent) {
    ++stats_.hits;
    PoolOnAccess(hit);
    return true;
  }
  // A data-less install: occupancy and eviction behave exactly like
  // FetchPage, but no page image is copied and no I/O time is charged —
  // the shared slot pools are residency ground truth, not data servers.
  ++stats_.misses;
  if (eviction_ != EvictionKind::kClock) {
    if (os_tier_.Erase(key)) {
      ++stats_.os_hits;
    } else {
      if (os_tier_.enabled()) ++stats_.os_misses;
      if (ssd_tier_.Erase(key)) ++stats_.ssd_hits;
    }
  }
  const size_t idx = AllocFrame();
  Install(idx, table_id, page_no, nullptr);
  return false;
}

void BufferPool::ScanTable(uint32_t table_id, uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) TouchPage(table_id, p);
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
      return eviction_ == EvictionKind::kClock ? os_cached_count_
                                               : os_tier_.resident();
    case kSsdTier:
      return ssd_tier_.resident();
  }
  return 0;
}

uint64_t BufferPool::tier_resident_frames(size_t tier,
                                          uint32_t table_id) const {
  switch (tier) {
    case kPoolTier:
      return resident_frames(table_id);
    case kOsTier:
      if (eviction_ == EvictionKind::kClock) {
        return table_id < os_per_table_.size() ? os_per_table_[table_id] : 0;
      }
      return os_tier_.resident(table_id);
    case kSsdTier:
      return ssd_tier_.resident(table_id);
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

size_t BufferPool::AllocFrame() {
  // During fill, frames are handed out in index order with no policy
  // involvement. This is the seed clock behaviour bit for bit: evictions
  // immediately reinstall, so occupancy is monotone between Clears and the
  // invalid frames form a contiguous tail the hand always sat at; after
  // the exact fill the seed hand wrapped to 0, where the policy's starts.
  if (resident_frames_ < frames_.size()) return fill_cursor_++;
  const size_t idx = PoolPickVictim();
  Frame& f = frames_[idx];
  const Key victim{f.table_id, f.page_no};
  index_.Erase(victim);
  f.valid = false;
  --resident_frames_;
  --per_table_frames_[f.table_id];
  ++stats_.evictions;
  if (eviction_ != EvictionKind::kClock) DemoteToOs(victim);
  return idx;
}

void BufferPool::Install(size_t idx, uint32_t table_id, uint64_t page_no,
                         const uint8_t* src) {
  Frame& f = frames_[idx];
  if (!f.valid) ++resident_frames_;
  if (src != nullptr) {
    if (!f.data) f.data = std::make_unique<uint8_t[]>(page_size_);
    std::memcpy(f.data.get(), src, page_size_);
  } else {
    f.data.reset();
  }
  f.table_id = table_id;
  f.page_no = page_no;
  f.valid = true;
  PoolOnInsert(idx);
  if (table_id >= per_table_frames_.size()) {
    per_table_frames_.resize(table_id + 1, 0);
  }
  ++per_table_frames_[table_id];
  index_.Set(Key{table_id, page_no}, static_cast<uint32_t>(idx));
  ++version_;
}

void BufferPool::Prewarm(const Table& table, double fraction) {
  fraction = std::min(std::max(fraction, 0.0), 1.0);
  const uint64_t want = static_cast<uint64_t>(
      fraction * static_cast<double>(table.num_pages()) + 0.5);
  const uint64_t n = std::min<uint64_t>(want, frames_.size());
  const uint32_t tid = InternTable(table.name());
  last_table_id_ = tid;
  for (uint64_t p = 0; p < n; ++p) {
    if (index_.Contains(Key{tid, p})) continue;
    const size_t idx = AllocFrame();
    Install(idx, tid, p, table.PageData(p));
  }
  MarkOsCached(table);
}

void BufferPool::MarkOsCached(const Table& table) {
  const uint32_t tid = InternTable(table.name());
  bool changed = false;
  if (eviction_ == EvictionKind::kClock) {
    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      if (os_cached_count_ >= os_cache_pages_) break;
      const Key key{tid, p};
      if (!OsCached(key)) {
        AdmitOsCached(key);
        changed = true;
      }
    }
  } else if (os_tier_.enabled()) {
    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      const Key key{tid, p};
      // Exclusive tiers: pages the pool already holds stay out of the OS
      // tier; the rest stream in, displacing victims down the cascade.
      if (index_.Contains(key)) continue;
      PageKey displaced;
      if (os_tier_.Insert(key, &displaced)) {
        ++stats_.os_evictions;
        if (ssd_tier_.enabled()) {
          PageKey dropped;
          if (ssd_tier_.Insert(displaced, &dropped)) ++stats_.ssd_evictions;
        }
      }
      changed = true;
    }
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
  for (auto& f : frames_) f.valid = false;
  index_.Clear();
  for (std::vector<uint64_t>& bits : os_cached_) {
    std::fill(bits.begin(), bits.end(), 0);
  }
  os_cached_count_ = 0;
  os_per_table_.assign(os_per_table_.size(), 0);
  os_tier_.Clear();
  ssd_tier_.Clear();
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
                                 EvictionKind eviction,
                                 uint64_t ssd_cache_bytes_per_pool)
    : capacity_bytes_(capacity_bytes_per_pool),
      page_size_(page_size),
      disk_(disk),
      os_cache_bytes_(os_cache_bytes_per_pool),
      eviction_(eviction),
      ssd_cache_bytes_(ssd_cache_bytes_per_pool) {
  Resize(1);
}

void BufferPoolGroup::Resize(size_t n) {
  if (n == 0) n = 1;
  while (pools_.size() < n) {
    pools_.push_back(std::make_unique<BufferPool>(capacity_bytes_, page_size_,
                                                  disk_, os_cache_bytes_,
                                                  eviction_,
                                                  ssd_cache_bytes_));
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
    total.ssd_hits += s.ssd_hits;
    total.ssd_evictions += s.ssd_evictions;
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
  // tier, tier2 the optional SSD capacity tier (published only when
  // enabled, so a given configuration always emits the same gauge set).
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
  if (ssd_tier_.enabled()) {
    obs::SetGauge(metrics, prefix + ".tier2.hits",
                  static_cast<double>(stats_.ssd_hits));
    obs::SetGauge(metrics, prefix + ".tier2.evictions",
                  static_cast<double>(stats_.ssd_evictions));
    obs::SetGauge(metrics, prefix + ".tier2.resident_frames",
                  static_cast<double>(ssd_tier_.resident()));
  }
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
