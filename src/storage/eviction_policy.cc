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

PageTier::PageTier(EvictionKind kind, uint64_t capacity, Admission admission)
    : capacity_(capacity), kind_(kind), admission_(admission) {
  // An admit-until-full tier has no slots (its capacity may be unlimited).
  // An evicting tier is finite and full in steady state, so its slots are
  // reserved here, and its victim loops never grow a vector.
  if (capacity_ == 0 || admission_ == Admission::kUntilFull) return;
  const size_t n = static_cast<size_t>(capacity_);
  switch (kind_) {
    case EvictionKind::kClock:
      clock_ = std::make_unique<ClockEvictionPolicy>(n);
      break;
    case EvictionKind::kLru:
      lru_ = std::make_unique<LruEvictionPolicy>(n);
      break;
    case EvictionKind::kPromotional:
      promotional_ = std::make_unique<PromotionalEvictionPolicy>(n);
      break;
  }
  slot_keys_.reserve(n);
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
  if (capacity_ == 0 || admission_ == Admission::kUntilFull) return;
  WithPolicy([](auto& policy) { policy.Reset(); });
}

}  // namespace dana::storage
