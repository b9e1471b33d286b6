#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dana::storage {

/// Replacement policies a cache tier can delegate victim selection to.
enum class EvictionKind : uint8_t {
  kClock = 0,        ///< Second-chance clock sweep (the seed pools' policy).
  kLru = 1,          ///< Strict least-recently-used.
  kPromotional = 2,  ///< Two-segment promotional queues (ZNCache-style).
};

const char* EvictionKindName(EvictionKind kind);
dana::Result<EvictionKind> ParseEvictionKind(std::string_view name);

/// Victim selection over the dense slot indices [0, capacity) of one cache
/// tier. The tier owns the slots and the page identities; the policy only
/// orders them. Contract:
///
///   - OnInsert(i): slot i now holds a (new) page — a fresh fill or the
///     reuse of a just-evicted victim slot.
///   - OnAccess(i): the page in slot i was re-referenced (a hit).
///   - PickVictim(): called only when every slot is occupied; returns the
///     slot to evict. The caller evicts and re-inserts into the same slot
///     (OnInsert relinks it), so PickVictim need not unlink anything.
///   - Reset(): the tier dropped every page (Clear).
///
/// The three implementations are `final` and tiers dispatch to them through
/// concrete pointers (switch on kind), so the hot TouchPage/FetchPage path
/// never pays a virtual call — the interface exists for tests and tooling.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual EvictionKind kind() const = 0;
  virtual void OnInsert(size_t idx) = 0;
  virtual void OnAccess(size_t idx) = 0;
  virtual size_t PickVictim() = 0;
  virtual void Reset() = 0;
};

/// Second-chance clock. Bit-for-bit the seed BufferPool's sweep once the
/// pool is full: referenced slots get their bit cleared and spared one
/// lap; the hand starts (and resets) at slot 0, which is exactly where the
/// seed's hand lands after filling an empty pool.
class ClockEvictionPolicy final : public EvictionPolicy {
 public:
  explicit ClockEvictionPolicy(size_t capacity)
      : referenced_(capacity == 0 ? 1 : capacity, 0) {}

  EvictionKind kind() const override { return EvictionKind::kClock; }
  void OnInsert(size_t idx) override { referenced_[idx] = 1; }
  void OnAccess(size_t idx) override { referenced_[idx] = 1; }
  size_t PickVictim() override {
    while (true) {
      const size_t idx = hand_;
      hand_ = (hand_ + 1) % referenced_.size();
      if (referenced_[idx]) {
        referenced_[idx] = 0;
        continue;
      }
      return idx;
    }
  }
  void Reset() override {
    referenced_.assign(referenced_.size(), 0);
    hand_ = 0;
  }

 private:
  std::vector<uint8_t> referenced_;
  size_t hand_ = 0;
};

/// Strict LRU over an intrusive doubly-linked list of slot indices.
class LruEvictionPolicy final : public EvictionPolicy {
 public:
  explicit LruEvictionPolicy(size_t capacity)
      : prev_(capacity, kNil), next_(capacity, kNil), linked_(capacity, 0) {}

  EvictionKind kind() const override { return EvictionKind::kLru; }
  void OnInsert(size_t idx) override { MoveToFront(idx); }
  void OnAccess(size_t idx) override { MoveToFront(idx); }
  size_t PickVictim() override { return tail_; }
  void Reset() override {
    prev_.assign(prev_.size(), kNil);
    next_.assign(next_.size(), kNil);
    linked_.assign(linked_.size(), 0);
    head_ = tail_ = kNil;
  }

 private:
  static constexpr size_t kNil = static_cast<size_t>(-1);

  void Unlink(size_t idx) {
    if (prev_[idx] != kNil) next_[prev_[idx]] = next_[idx];
    if (next_[idx] != kNil) prev_[next_[idx]] = prev_[idx];
    if (head_ == idx) head_ = next_[idx];
    if (tail_ == idx) tail_ = prev_[idx];
    prev_[idx] = next_[idx] = kNil;
    linked_[idx] = 0;
  }
  void MoveToFront(size_t idx) {
    if (linked_[idx]) {
      if (head_ == idx) return;
      Unlink(idx);
    }
    prev_[idx] = kNil;
    next_[idx] = head_;
    if (head_ != kNil) prev_[head_] = idx;
    head_ = idx;
    if (tail_ == kNil) tail_ = idx;
    linked_[idx] = 1;
  }

  std::vector<size_t> prev_, next_;
  std::vector<uint8_t> linked_;
  size_t head_ = kNil, tail_ = kNil;
};

/// Promotional eviction à la ZNCache's chunk queues: new pages enter a
/// probationary queue; a re-reference *promotes* the page across the queue
/// boundary into a protected segment (capped at half the tier) instead of
/// merely sparing it for a lap. When the protected segment overflows, its
/// LRU page is demoted back to the probationary MRU position. Victims come
/// from the probationary tail, so a one-shot sequential flood churns only
/// the probationary half while re-referenced working sets survive — the
/// scan resistance clock and plain LRU lack.
class PromotionalEvictionPolicy final : public EvictionPolicy {
 public:
  explicit PromotionalEvictionPolicy(size_t capacity)
      : prev_(capacity, kNil),
        next_(capacity, kNil),
        segment_(capacity, kUnlinked),
        protected_cap_(capacity / 2) {}

  EvictionKind kind() const override { return EvictionKind::kPromotional; }
  void OnInsert(size_t idx) override {
    if (segment_[idx] != kUnlinked) Unlink(idx);
    PushFront(kProbation, idx);
  }
  void OnAccess(size_t idx) override {
    if (segment_[idx] == kProtected) {
      if (head_[kProtected] != idx) {
        Unlink(idx);
        PushFront(kProtected, idx);
      }
      return;
    }
    Unlink(idx);
    PushFront(kProtected, idx);
    if (size_[kProtected] > protected_cap_) {
      const size_t demoted = tail_[kProtected];
      Unlink(demoted);
      PushFront(kProbation, demoted);
    }
  }
  size_t PickVictim() override {
    return tail_[kProbation] != kNil ? tail_[kProbation] : tail_[kProtected];
  }
  void Reset() override {
    prev_.assign(prev_.size(), kNil);
    next_.assign(next_.size(), kNil);
    segment_.assign(segment_.size(), kUnlinked);
    head_[0] = head_[1] = tail_[0] = tail_[1] = kNil;
    size_[0] = size_[1] = 0;
  }

 private:
  static constexpr size_t kNil = static_cast<size_t>(-1);
  static constexpr uint8_t kProbation = 0;
  static constexpr uint8_t kProtected = 1;
  static constexpr uint8_t kUnlinked = 2;

  void Unlink(size_t idx) {
    const uint8_t seg = segment_[idx];
    if (prev_[idx] != kNil) next_[prev_[idx]] = next_[idx];
    if (next_[idx] != kNil) prev_[next_[idx]] = prev_[idx];
    if (head_[seg] == idx) head_[seg] = next_[idx];
    if (tail_[seg] == idx) tail_[seg] = prev_[idx];
    prev_[idx] = next_[idx] = kNil;
    segment_[idx] = kUnlinked;
    --size_[seg];
  }
  void PushFront(uint8_t seg, size_t idx) {
    prev_[idx] = kNil;
    next_[idx] = head_[seg];
    if (head_[seg] != kNil) prev_[head_[seg]] = idx;
    head_[seg] = idx;
    if (tail_[seg] == kNil) tail_[seg] = idx;
    segment_[idx] = seg;
    ++size_[seg];
  }

  std::vector<size_t> prev_, next_;
  std::vector<uint8_t> segment_;
  size_t head_[2] = {kNil, kNil};
  size_t tail_[2] = {kNil, kNil};
  size_t size_[2] = {0, 0};
  size_t protected_cap_;
};

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionKind kind,
                                                   size_t capacity);

/// Page identity within a pool/tier: interned table id + page number. Both
/// are dense small integers, so tiers index by them directly (PageIndex)
/// and never hash or compare a string on the touch path.
struct PageKey {
  uint32_t table_id;
  uint64_t page_no;
  bool operator==(const PageKey&) const = default;
};

/// Direct-mapped page index of one pool or tier: (table_id, page_no) ->
/// slot, stored as one array per table indexed by page number, with
/// kAbsent marking an unmapped page. Interned table ids and page numbers
/// are dense, so a lookup is two bounds checks and a load. A table's array
/// grows on demand to the highest page number stored and keeps its size
/// across Clear(), so memory is proportional to the largest page number
/// touched per table, not to the number of resident pages.
class PageIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Slot holding `key`, or kAbsent.
  uint32_t Find(const PageKey& key) const {
    if (key.table_id >= tables_.size()) return kAbsent;
    const std::vector<uint32_t>& pages = tables_[key.table_id];
    return key.page_no < pages.size() ? pages[key.page_no] : kAbsent;
  }
  bool Contains(const PageKey& key) const { return Find(key) != kAbsent; }

  /// Maps `key` to `slot` (< kAbsent), replacing any previous mapping.
  void Set(const PageKey& key, uint32_t slot) {
    if (key.table_id >= tables_.size()) tables_.resize(key.table_id + 1);
    std::vector<uint32_t>& pages = tables_[key.table_id];
    if (key.page_no >= pages.size()) pages.resize(key.page_no + 1, kAbsent);
    uint32_t& entry = pages[key.page_no];
    if (entry == kAbsent) ++size_;
    entry = slot;
  }

  /// Unmaps `key`; returns the slot it held, or kAbsent.
  uint32_t Erase(const PageKey& key) {
    if (key.table_id >= tables_.size()) return kAbsent;
    std::vector<uint32_t>& pages = tables_[key.table_id];
    if (key.page_no >= pages.size()) return kAbsent;
    const uint32_t slot = pages[key.page_no];
    if (slot != kAbsent) {
      pages[key.page_no] = kAbsent;
      --size_;
    }
    return slot;
  }

  /// Number of mapped pages.
  uint64_t size() const { return size_; }

  void Clear() {
    for (std::vector<uint32_t>& pages : tables_) {
      std::fill(pages.begin(), pages.end(), kAbsent);
    }
    size_ = 0;
  }

 private:
  std::vector<std::vector<uint32_t>> tables_;
  uint64_t size_ = 0;
};

/// A key-addressed cache tier below the buffer pool: the modeled kernel
/// page cache or an SSD-style capacity tier. It holds page *identities*
/// only (no frames, no data — tier hits are priced by the pool's DiskModel)
/// and delegates victim selection to an EvictionPolicy over its dense slot
/// indices, found through a PageIndex. Unlike clock's admit-until-full OS
/// set (BufferPool's `os_cached_` bitmap), a full tier evicts: a
/// post-saturation insert displaces a victim and reports it so the owner
/// can cascade the demotion down to the next tier.
class PageTier {
 public:
  /// A disabled tier: every operation is a no-op returning "absent".
  PageTier() : PageTier(EvictionKind::kClock, 0) {}
  PageTier(EvictionKind kind, uint64_t capacity);

  bool enabled() const { return capacity_ > 0; }
  uint64_t capacity() const { return capacity_; }
  uint64_t resident() const { return index_.size(); }
  uint64_t resident(uint32_t table_id) const {
    return table_id < per_table_.size() ? per_table_[table_id] : 0;
  }
  uint64_t evictions() const { return evictions_; }

  bool Contains(const PageKey& key) const { return index_.Contains(key); }

  /// Re-references `key` (policy OnAccess). Returns true if present.
  bool Touch(const PageKey& key);

  /// Removes `key` — a promotion up the hierarchy. Returns true if it was
  /// present.
  bool Erase(const PageKey& key);

  /// Inserts `key` (a demotion from the tier above). Inserting a present
  /// key is a Touch. When the tier is full a victim is displaced and
  /// written to `*evicted` (when non-null); returns true iff a victim was
  /// displaced — the caller demotes it to the next tier down or drops it.
  bool Insert(const PageKey& key, PageKey* evicted);

  void Clear();

 private:
  void PolicyOnInsert(size_t slot);
  void PolicyOnAccess(size_t slot);
  size_t PolicyPickVictim();

  uint64_t capacity_;
  EvictionKind kind_;
  // Concrete policy pointers: exactly one is non-null, selected by kind_,
  // and calls go through the concrete (final) type — no virtual dispatch.
  std::unique_ptr<ClockEvictionPolicy> clock_;
  std::unique_ptr<LruEvictionPolicy> lru_;
  std::unique_ptr<PromotionalEvictionPolicy> promotional_;
  PageIndex index_;
  std::vector<PageKey> slot_keys_;
  std::vector<size_t> free_slots_;
  std::vector<uint64_t> per_table_;
  uint64_t evictions_ = 0;
};

}  // namespace dana::storage
