#include "storage/eviction_policy.h"

namespace dana::storage {

const char* EvictionKindName(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kClock:
      return "clock";
    case EvictionKind::kLru:
      return "lru";
    case EvictionKind::kPromotional:
      return "promotional";
  }
  return "unknown";
}

dana::Result<EvictionKind> ParseEvictionKind(std::string_view name) {
  if (name == "clock") return EvictionKind::kClock;
  if (name == "lru") return EvictionKind::kLru;
  if (name == "promotional") return EvictionKind::kPromotional;
  return Status::InvalidArgument("unknown eviction policy '" +
                                 std::string(name) +
                                 "' (clock, lru, promotional)");
}

PageTier::PageTier(EvictionKind kind, uint64_t capacity)
    : capacity_(capacity), kind_(kind) {
  // A clock tier has no slots (its capacity may be unlimited). An evicting
  // tier is finite and full in steady state, so its slots are reserved
  // here, and its demotion loops never grow a vector.
  if (capacity_ == 0 || kind_ == EvictionKind::kClock) return;
  const size_t n = static_cast<size_t>(capacity_);
  if (kind_ == EvictionKind::kLru) {
    lru_ = std::make_unique<LruEvictionPolicy>(n);
  } else {
    promotional_ = std::make_unique<PromotionalEvictionPolicy>(n);
  }
  slot_keys_.reserve(n);
  free_slots_.reserve(n);
}

void PageTier::GrowPerTable(uint32_t table_id) {
  per_table_.resize(table_id + 1, 0);
}

void PageTier::Clear() {
  index_.Clear();
  per_table_.assign(per_table_.size(), 0);
  slot_keys_.clear();
  free_slots_.clear();
  resident_ = 0;
  if (lru_) lru_->Reset();
  if (promotional_) promotional_->Reset();
}

}  // namespace dana::storage
