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

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionKind kind,
                                                   size_t capacity) {
  switch (kind) {
    case EvictionKind::kClock:
      return std::make_unique<ClockEvictionPolicy>(capacity);
    case EvictionKind::kLru:
      return std::make_unique<LruEvictionPolicy>(capacity);
    case EvictionKind::kPromotional:
      return std::make_unique<PromotionalEvictionPolicy>(capacity);
  }
  return nullptr;
}

PageTier::PageTier(EvictionKind kind, uint64_t capacity)
    : capacity_(capacity), kind_(kind) {
  if (capacity_ == 0) return;
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
  slot_keys_.resize(n);
  free_slots_.resize(n);
  Clear();
}

void PageTier::GrowPerTable(uint32_t table_id) {
  per_table_.resize(table_id + 1, 0);
}

void PageTier::Clear() {
  if (!enabled()) return;
  index_.Clear();
  per_table_.assign(per_table_.size(), 0);
  // Stacked so the first pops hand out slots 0, 1, 2, ... in order.
  free_count_ = free_slots_.size();
  for (size_t i = 0; i < free_count_; ++i) {
    free_slots_[i] = static_cast<uint32_t>(free_count_ - 1 - i);
  }
  WithPolicy([](auto& policy) { policy.Reset(); });
}

}  // namespace dana::storage
