#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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
/// level. The level owns the slots and the page identities; the policy only
/// orders them. Each policy is reached through its Cursor, which holds the
/// policy's state in locals across a loop of calls (a pool's sweep, a
/// tier's run of demotions) and writes it back when it goes out of scope:
///
///   - OnInsert(i): slot i now holds a (new) page — a fresh fill or the
///     reuse of a just-evicted victim slot.
///   - OnAccess(i): the page in slot i was re-referenced (a hit).
///   - PickVictim(): called only when every slot is occupied; returns the
///     slot to evict. The caller evicts and re-inserts into the same slot
///     (OnInsert relinks it), so PickVictim need not unlink anything.
///   - RunAfter/TakeNext: take a run of victims that follow in slot order.
///
/// Reset() on the policy drops every page (Clear). A PageTier holds its
/// concrete policy and switches on EvictionKind, so no call is virtual.

/// Second-chance clock. Bit-for-bit the seed BufferPool's sweep once the
/// pool is full: referenced slots get their bit cleared and spared one
/// lap; the hand starts (and resets) at slot 0, which is exactly where the
/// seed's hand lands after filling an empty pool.
class ClockEvictionPolicy {
 public:
  /// The hand and the reference bits, held in locals for a loop of calls
  /// (BufferPool's sweeps) and written back when the cursor goes out of
  /// scope. The policy itself must not be called while a cursor is live.
  class Cursor {
   public:
    explicit Cursor(ClockEvictionPolicy& clock)
        : clock_(clock),
          bits_(clock.referenced_.data()),
          n_(clock.referenced_.size()),
          hand_(clock.hand_) {}
    ~Cursor() { clock_.hand_ = hand_; }
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    void OnInsert(size_t idx) { bits_[idx] = 1; }
    void OnAccess(size_t idx) { bits_[idx] = 1; }
    /// The hand clears a whole run of referenced slots at once and stops
    /// on the first unreferenced one, wrapping at most once.
    size_t PickVictim() {
      while (true) {
        const void* found = bits_[hand_] == 0
                                ? bits_ + hand_
                                : std::memchr(bits_ + hand_, 0, n_ - hand_);
        if (found != nullptr) {
          const size_t idx = static_cast<const uint8_t*>(found) - bits_;
          std::memset(bits_ + hand_, 0, idx - hand_);
          hand_ = idx + 1 == n_ ? 0 : idx + 1;
          return idx;
        }
        std::memset(bits_ + hand_, 0, n_ - hand_);
        hand_ = 0;
      }
    }
    /// How many of the victims after `slot` (just taken: PickVictim, then
    /// OnInsert) are slot + 1, slot + 2, ... — the unreferenced run the
    /// hand now stands on — at most `max`. Only slot order is read, so a
    /// sweep's loop need not wait on PickVictim for each of them.
    size_t RunAfter(size_t slot, size_t max) const {
      size_t n = 0;
      while (n < max && slot + 1 + n < n_ && bits_[slot + 1 + n] == 0) ++n;
      return n;
    }
    /// Takes `slot`, the next victim by RunAfter, and reinserts it.
    void TakeNext(size_t slot) {
      bits_[slot] = 1;
      hand_ = slot + 1 == n_ ? 0 : slot + 1;
    }

   private:
    ClockEvictionPolicy& clock_;
    uint8_t* const bits_;
    const size_t n_;
    size_t hand_;
  };

  explicit ClockEvictionPolicy(size_t capacity)
      : referenced_(capacity == 0 ? 1 : capacity, 0) {}

  void Reset() {
    referenced_.assign(referenced_.size(), 0);
    hand_ = 0;
  }

 private:
  std::vector<uint8_t> referenced_;
  size_t hand_ = 0;
};

/// Strict LRU over an intrusive doubly-linked list of slot indices.
///
/// Moves to the front are applied a recency run at a time. A sequential
/// scan moves slot after slot that sits just ahead (toward the head) of
/// the one it moved before: it re-references a run of pages it left in
/// recency order, or it reuses victims off the tail one by one. Such a
/// move only extends a pending segment [seg_hd_, seg_tl_] of the stored
/// list, and the segment is spliced to the front in O(1) once a move
/// breaks the run. The logical list — the segment, then the stored list
/// without it — is exactly the list the moves one at a time would build,
/// and PickVictim answers from it.
class LruEvictionPolicy {
 public:
  /// The list ends and the pending segment, held in locals for a loop of
  /// calls (BufferPool's sweeps) and written back when the cursor goes out
  /// of scope. The policy itself must not be called while a cursor is live.
  class Cursor {
   public:
    explicit Cursor(LruEvictionPolicy& lru)
        : lru_(lru),
          prev_(lru.prev_.data()),
          next_(lru.next_.data()),
          linked_(lru.linked_.data()),
          head_(lru.head_),
          tail_(lru.tail_),
          seg_hd_(lru.seg_hd_),
          seg_tl_(lru.seg_tl_) {}
    ~Cursor() {
      lru_.head_ = head_;
      lru_.tail_ = tail_;
      lru_.seg_hd_ = seg_hd_;
      lru_.seg_tl_ = seg_tl_;
    }
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    void OnInsert(size_t idx) { MoveToFront(idx); }
    void OnAccess(size_t idx) { MoveToFront(idx); }
    size_t PickVictim() const {
      // A segment ending at the stored tail leaves the slot just ahead of
      // it as the logical tail, unless the segment is the whole list.
      return seg_tl_ == tail_ && seg_hd_ != head_ ? prev_[seg_hd_] : tail_;
    }
    /// How many of the victims after `slot` (just taken: PickVictim, then
    /// OnInsert) are slot + 1, slot + 2, ... — the stored list running in
    /// slot order there, as a fill or an in-order reuse leaves it — at most
    /// `max`. Only slot order is read, so a sweep's loop need not wait on
    /// PickVictim for each of them.
    size_t RunAfter(size_t slot, size_t max) const {
      if (seg_hd_ != slot || seg_tl_ != tail_) return 0;
      size_t n = 0;
      while (n < max && prev_[slot + n] == slot + n + 1) ++n;
      return n;
    }
    /// Takes `slot`, the next victim by RunAfter, and reinserts it.
    void TakeNext(size_t slot) { seg_hd_ = static_cast<uint32_t>(slot); }

   private:
    void MoveToFront(size_t idx) {
      // The run goes on: idx is the segment's head or the slot just ahead
      // of it (only a linked slot can be either).
      if (seg_hd_ != kNil && (idx == seg_hd_ || idx == prev_[seg_hd_])) {
        seg_hd_ = static_cast<uint32_t>(idx);
        return;
      }
      StartSegment(static_cast<uint32_t>(idx));
    }
    /// A move that breaks the run: splices the pending segment, then
    /// starts a new one at idx (linking idx at the front if it is new).
    void StartSegment(uint32_t idx) {
      Splice();
      if (!linked_[idx]) {
        prev_[idx] = kNil;
        next_[idx] = head_;
        if (head_ != kNil) prev_[head_] = idx;
        head_ = idx;
        if (tail_ == kNil) tail_ = idx;
        linked_[idx] = 1;
      }
      seg_hd_ = seg_tl_ = idx;
    }
    /// Moves the pending segment to the front of the stored list.
    void Splice() {
      if (seg_hd_ == kNil) return;
      if (seg_hd_ != head_) {
        const uint32_t before = prev_[seg_hd_];
        const uint32_t after = next_[seg_tl_];
        next_[before] = after;
        if (after != kNil) {
          prev_[after] = before;
        } else {
          tail_ = before;
        }
        prev_[seg_hd_] = kNil;
        next_[seg_tl_] = head_;
        prev_[head_] = seg_tl_;
        head_ = seg_hd_;
      }
      seg_hd_ = seg_tl_ = kNil;
    }

    LruEvictionPolicy& lru_;
    uint32_t* const prev_;
    uint32_t* const next_;
    uint8_t* const linked_;
    uint32_t head_, tail_, seg_hd_, seg_tl_;
  };

  explicit LruEvictionPolicy(size_t capacity)
      : prev_(capacity, kNil), next_(capacity, kNil), linked_(capacity, 0) {}

  void Reset() {
    prev_.assign(prev_.size(), kNil);
    next_.assign(next_.size(), kNil);
    linked_.assign(linked_.size(), 0);
    head_ = tail_ = seg_hd_ = seg_tl_ = kNil;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  std::vector<uint32_t> prev_, next_;
  std::vector<uint8_t> linked_;
  uint32_t head_ = kNil, tail_ = kNil;
  /// The pending segment (kNil when none): contiguous in the stored list,
  /// seg_hd_ nearer its head, logically at the front.
  uint32_t seg_hd_ = kNil, seg_tl_ = kNil;
};

/// Promotional eviction à la ZNCache's chunk queues: new pages enter a
/// probationary queue; a re-reference *promotes* the page across the queue
/// boundary into a protected segment (capped at half the tier) instead of
/// merely sparing it for a lap. When the protected segment overflows, its
/// LRU page is demoted back to the probationary MRU position. Victims come
/// from the probationary tail, so a one-shot sequential flood churns only
/// the probationary half while re-referenced working sets survive — the
/// scan resistance clock and plain LRU lack.
class PromotionalEvictionPolicy {
 public:
  explicit PromotionalEvictionPolicy(size_t capacity)
      : prev_(capacity, kNil),
        next_(capacity, kNil),
        segment_(capacity, kUnlinked),
        protected_cap_(capacity / 2) {}

  /// Calls straight through to the policy: promotional sweeps stay per
  /// page, but share the cursor interface of the other policies.
  class Cursor {
   public:
    explicit Cursor(PromotionalEvictionPolicy& policy) : policy_(policy) {}
    void OnInsert(size_t idx) { policy_.OnInsert(idx); }
    void OnAccess(size_t idx) { policy_.OnAccess(idx); }
    size_t PickVictim() { return policy_.PickVictim(); }
    /// Victims here do not follow slot order: no runs.
    size_t RunAfter(size_t, size_t) const { return 0; }
    void TakeNext(size_t slot) { OnInsert(slot); }

   private:
    PromotionalEvictionPolicy& policy_;
  };

  void OnInsert(size_t idx) {
    if (segment_[idx] != kUnlinked) Unlink(idx);
    PushFront(kProbation, idx);
  }
  void OnAccess(size_t idx) {
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
  size_t PickVictim() {
    return tail_[kProbation] != kNil ? tail_[kProbation] : tail_[kProtected];
  }
  void Reset() {
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

/// How far a loop taking victims looks ahead at once for a slot-order run
/// (the policies' Cursor::RunAfter): long enough that the one PickVictim
/// per probe is rare, short enough that a probe cut off early wastes
/// little.
inline constexpr size_t kRunProbe = 256;

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
/// touched per table, not to the number of resident pages. The owner
/// counts its pages; the index only maps them.
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
    if (key.table_id < tables_.size()) {
      std::vector<uint32_t>& pages = tables_[key.table_id];
      if (key.page_no < pages.size()) {
        pages[key.page_no] = slot;
        return;
      }
    }
    Row(key.table_id, key.page_no + 1)[key.page_no] = slot;
  }

  /// Unmaps `key`; returns the slot it held, or kAbsent.
  uint32_t Erase(const PageKey& key) {
    if (key.table_id >= tables_.size()) return kAbsent;
    std::vector<uint32_t>& pages = tables_[key.table_id];
    if (key.page_no >= pages.size()) return kAbsent;
    const uint32_t slot = pages[key.page_no];
    pages[key.page_no] = kAbsent;
    return slot;
  }

  /// The slots of `table_id`'s pages as stored (empty for an unknown
  /// table); valid until the next Set.
  std::span<const uint32_t> Slots(uint32_t table_id) const {
    if (table_id >= tables_.size()) return {};
    return tables_[table_id];
  }

  /// The slots of pages [0, pages) of `table_id`, growing its array to at
  /// least `pages` entries. The pointer stays valid until the array grows
  /// again: a Set on a page of this table at or past `pages`.
  uint32_t* Row(uint32_t table_id, uint64_t pages) {
    if (table_id >= tables_.size()) tables_.resize(table_id + 1);
    std::vector<uint32_t>& row = tables_[table_id];
    if (pages > row.size()) row.resize(pages, kAbsent);
    return row.data();
  }

  void Clear() {
    for (std::vector<uint32_t>& pages : tables_) {
      std::fill(pages.begin(), pages.end(), kAbsent);
    }
  }

 private:
  std::vector<std::vector<uint32_t>> tables_;
};

/// One level of the page cache hierarchy — the buffer pool's frames, or
/// the modeled kernel page cache below them. It holds page *identities*
/// only (no page bytes; the pool prices reads with its DiskModel), found
/// through a PageIndex. Its admission rule, fixed at construction, says
/// what a full tier does with a page it is asked to admit:
///
///   - kEvict: an insert displaces the victim of the tier's EvictionKind
///     policy, so a page first admitted after the tier saturated still
///     gets in. The policy orders dense slots, each holding its page's
///     key, reserved for the whole (finite) capacity up front. A tier
///     that is never asked to free a page (the pool's frames) hands out
///     slots 0, 1, 2, ... while it fills and then reuses only victims.
///   - kUntilFull: the tier never picks a victim: an insert into a full
///     tier is refused, and the tier keeps its pages. It has no policy
///     and stores only each admitted page's index entry, so an unlimited
///     (UINT64_MAX) tier costs only what it holds. Clock's OS tier admits
///     this way.
class PageTier {
  /// Calls `fn` with the evicting tier's policy, of the type kind_
  /// selects.
  template <typename Fn>
  decltype(auto) WithPolicy(Fn&& fn) {
    switch (kind_) {
      case EvictionKind::kClock:
        return fn(*clock_);
      case EvictionKind::kLru:
        return fn(*lru_);
      case EvictionKind::kPromotional:
        break;
    }
    return fn(*promotional_);
  }

 public:
  enum class Admission : uint8_t {
    kEvict,      ///< a full tier displaces its policy's victim
    kUntilFull,  ///< a full tier refuses the page
  };

  /// A tier of `capacity` pages; 0 disables it (every operation is a no-op
  /// returning "absent").
  PageTier(EvictionKind kind, uint64_t capacity, Admission admission);

  /// Evicting tiers: calls `fn` with a cursor over the tier's policy (the
  /// policies' Cursor classes). No policy call is virtual, and the
  /// replacement state stays in registers for the whole call, so a loop
  /// of touches opens one cursor, not one per page.
  template <typename Fn>
  decltype(auto) WithCursor(Fn&& fn) {
    return WithPolicy([&fn](auto& policy) -> decltype(auto) {
      typename std::remove_reference_t<decltype(policy)>::Cursor cursor(
          policy);
      return fn(cursor);
    });
  }

  /// Takes a run of victims off a full evicting tier through its open
  /// cursor: each Replace evicts the next victim and puts a new page in
  /// its slot. The cursor walks victims run by run (RunAfter), and the
  /// victims' index row is looked up once per run of one table's pages.
  /// The per-table counts are settled by Settle, once per run of new
  /// pages of one table, so no count is stored per page. Nothing
  /// else may change the tier while a replacer is in use, except through
  /// `cursor` between a Break and the next Replace.
  template <typename Cursor>
  class Replacer {
   public:
    Replacer(PageTier& tier, Cursor& cursor)
        : tier_(tier), cursor_(cursor), keys_(tier.slot_keys_.data()) {}

    /// The tier is full and `key` absent, with `entry` its index entry
    /// (Row): evicts the next victim, puts `key` in its slot and returns
    /// the victim.
    PageKey Replace(const PageKey& key, uint32_t& entry) {
      size_t slot;
      if (run_ > 0) {
        slot = ++last_;
        cursor_.TakeNext(slot);
        --run_;
      } else {
        slot = last_ = cursor_.PickVictim();
        cursor_.OnInsert(slot);
        run_ = cursor_.RunAfter(slot, kRunProbe);
      }
      const PageKey victim = keys_[slot];
      if (victim.table_id != victim_table_) {
        SettleVictims();
        victim_table_ = victim.table_id;
        victim_row_ = tier_.index_.Row(victim_table_, 0);
      }
      victim_row_[victim.page_no] = PageIndex::kAbsent;
      ++victims_;
      keys_[slot] = key;
      entry = static_cast<uint32_t>(slot);
      return victim;
    }

    /// Settles the per-table counts: the victims taken so far, and the
    /// `inserted` pages Replace put in since the last Settle, all of
    /// `table_id`.
    void Settle(uint32_t table_id, uint64_t inserted) {
      SettleVictims();
      tier_.per_table_[table_id] += inserted;
    }

    /// The cursor moved outside this replacer (a hit, a fill): the next
    /// Replace asks it for a victim afresh.
    void Break() { run_ = 0; }

    /// Row(table_id, pages), keeping the victims' row valid if it grows.
    uint32_t* Row(uint32_t table_id, uint64_t pages) {
      uint32_t* const row = tier_.Row(table_id, pages);
      if (table_id == victim_table_) victim_row_ = row;
      return row;
    }

   private:
    void SettleVictims() {
      if (victims_ > 0) tier_.per_table_[victim_table_] -= victims_;
      victims_ = 0;
    }

    PageTier& tier_;
    Cursor& cursor_;
    /// slot_keys_.data(): reserved for the whole capacity, it never moves.
    PageKey* const keys_;
    /// Victims known (RunAfter) to follow `last_` in slot order.
    size_t run_ = 0;
    size_t last_ = 0;
    uint32_t victim_table_ = UINT32_MAX;
    uint32_t* victim_row_ = nullptr;
    uint64_t victims_ = 0;
  };

  bool enabled() const { return capacity_ > 0; }
  bool full() const { return resident_ == capacity_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t resident() const { return resident_; }
  uint64_t resident(uint32_t table_id) const {
    return table_id < per_table_.size() ? per_table_[table_id] : 0;
  }

  /// The slot holding `key`, or PageIndex::kAbsent.
  uint32_t Find(const PageKey& key) const { return index_.Find(key); }
  bool Contains(const PageKey& key) const { return index_.Contains(key); }
  /// The tier's slots of `table_id`'s pages (PageIndex::Slots).
  std::span<const uint32_t> Slots(uint32_t table_id) const {
    return index_.Slots(table_id);
  }
  /// The slots of pages [0, pages) of `table_id` (PageIndex::Row), for a
  /// loop that reads hits off it and fills its absent entries through a
  /// Replacer; the table's count is sized with it. Valid until the row
  /// grows again.
  uint32_t* Row(uint32_t table_id, uint64_t pages) {
    if (table_id >= per_table_.size()) GrowPerTable(table_id);
    return index_.Row(table_id, pages);
  }

  /// Removes `key` — a promotion up the hierarchy. Returns true if it was
  /// present.
  bool Erase(const PageKey& key) {
    const uint32_t slot = index_.Erase(key);
    if (slot == PageIndex::kAbsent) return false;
    --per_table_[key.table_id];
    Free(slot);
    return true;
  }

  /// Admits `key` (a demotion from the tier above, or a page the OS read).
  /// An admit-until-full tier refuses it when full and ignores a present
  /// key. An evicting tier re-references a present key, else Admits it,
  /// and returns true iff it displaced a victim.
  bool Insert(const PageKey& key) {
    if (!enabled()) return false;
    if (admission_ == Admission::kUntilFull) {
      // Nothing is ever picked as a victim, so a page's slot is never
      // read: it holds no key, and every page maps to slot 0.
      if (!full() && !Contains(key)) {
        ++resident_;
        Map(key, 0);
      }
      return false;
    }
    return WithCursor([&](auto& cursor) {
      const uint32_t present = index_.Find(key);
      if (present != PageIndex::kAbsent) {
        cursor.OnAccess(present);
        return false;
      }
      PageKey victim;
      return Admit(cursor, key, &victim);
    });
  }

  /// Evicting tiers: puts `key`, absent, into a new slot while the tier
  /// has room, else into its policy's victim's slot, with the victim's
  /// key in `*victim`. Returns true iff it displaced a victim.
  template <typename Cursor>
  bool Admit(Cursor& cursor, const PageKey& key, PageKey* victim) {
    if (!full()) {
      cursor.OnInsert(Fill(key));
      return false;
    }
    const size_t slot = cursor.PickVictim();
    *victim = slot_keys_[slot];
    index_.Erase(*victim);
    --per_table_[victim->table_id];
    slot_keys_[slot] = key;
    Map(key, slot);
    cursor.OnInsert(slot);
    return true;
  }

  /// Evicting tiers: pages [first, first + keys.size()) of `table_id`, all
  /// present, leave the tier (promotions), and keys[j] takes the slot page
  /// first + j left — each pair is what Erase and then an Insert reusing
  /// the freed slot would do. A key already present is touched instead,
  /// and its slot goes free. Rows are looked up once per run of one
  /// table's pages.
  void Exchange(uint32_t table_id, uint64_t first,
                const std::vector<PageKey>& keys) {
    if (keys.empty()) return;
    per_table_[table_id] -= keys.size();
    WithCursor([&](auto& cursor) {
      for (size_t j = 0; j < keys.size();) {
        const uint32_t table = keys[j].table_id;
        const uint64_t key_first = keys[j].page_no;
        const size_t n = RunLength(keys, j);
        // Grow the keys' row first: the promoted pages' row is already
        // long enough, so fetching it second leaves both valid.
        uint32_t* const row = Row(table, key_first + n);
        uint32_t* const leaving = index_.Row(table_id, 0) + first + j;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t slot = leaving[i];
          leaving[i] = PageIndex::kAbsent;
          uint32_t& entry = row[key_first + i];
          if (entry != PageIndex::kAbsent) {
            cursor.OnAccess(entry);
            Free(slot);
            continue;
          }
          slot_keys_[slot] = keys[j + i];
          entry = slot;
          ++per_table_[table];
          cursor.OnInsert(slot);
        }
        j += n;
      }
    });
  }

  /// Evicting tiers: Insert(key) for each of `keys` in order; returns the
  /// number of victims displaced. Keys arrive as runs of one table's
  /// consecutive pages (a pool's victims), so each run's index row is
  /// looked up once.
  uint64_t InsertRun(const std::vector<PageKey>& keys) {
    if (!enabled()) return 0;
    return WithCursor([&](auto& cursor) {
      Replacer replacer(*this, cursor);
      uint64_t displaced = 0;
      for (size_t j = 0; j < keys.size();) {
        const uint64_t first = keys[j].page_no;
        const size_t n = RunLength(keys, j);
        // Grown once: the victims Replace erases only clear entries, so
        // no row moves inside the run.
        const uint32_t table = keys[j].table_id;
        uint32_t* const row = replacer.Row(table, first + n);
        uint64_t replaced = 0;
        for (size_t i = 0; i < n; ++i) {
          uint32_t& entry = row[first + i];
          if (entry != PageIndex::kAbsent) {
            cursor.OnAccess(entry);
            replacer.Break();
          } else if (!full()) {
            cursor.OnInsert(Fill(keys[j + i]));
            replacer.Break();
          } else {
            replacer.Replace(keys[j + i], entry);
            ++replaced;
          }
        }
        replacer.Settle(table, replaced);
        displaced += replaced;
        j += n;
      }
      return displaced;
    });
  }

  void Clear();

 private:
  /// Evicting tiers, not full: puts `key`, absent, into a new slot and
  /// returns it (the caller hands it to its cursor).
  size_t Fill(const PageKey& key) {
    const size_t slot = NewSlot();
    slot_keys_[slot] = key;
    Map(key, slot);
    return slot;
  }
  /// Evicting tiers: a slot for a page being admitted, the last one freed,
  /// else a new one (so a cleared tier hands out slots 0, 1, 2, ... in
  /// order).
  size_t NewSlot() {
    ++resident_;
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    slot_keys_.emplace_back();
    return slot_keys_.size() - 1;
  }
  void Free(uint32_t slot) {
    if (admission_ == Admission::kEvict) free_slots_.push_back(slot);
    --resident_;
  }
  /// Length of the run starting at keys[j]: one table's consecutive pages.
  static size_t RunLength(const std::vector<PageKey>& keys, size_t j) {
    size_t n = 1;
    while (j + n < keys.size() && keys[j + n].table_id == keys[j].table_id &&
           keys[j + n].page_no == keys[j].page_no + n) {
      ++n;
    }
    return n;
  }
  /// Indexes `key` at `slot` and counts it.
  void Map(const PageKey& key, size_t slot) {
    index_.Set(key, static_cast<uint32_t>(slot));
    if (key.table_id >= per_table_.size()) GrowPerTable(key.table_id);
    ++per_table_[key.table_id];
  }
  void GrowPerTable(uint32_t table_id);

  uint64_t capacity_;
  EvictionKind kind_;
  Admission admission_;
  // Evicting tiers: the policy kind_ selects (all null otherwise), called
  // through its concrete type.
  std::unique_ptr<ClockEvictionPolicy> clock_;
  std::unique_ptr<LruEvictionPolicy> lru_;
  std::unique_ptr<PromotionalEvictionPolicy> promotional_;
  PageIndex index_;
  /// Evicting tiers: the page in each allocated slot.
  std::vector<PageKey> slot_keys_;
  /// Allocated slots no page holds, reused last-freed first.
  std::vector<uint32_t> free_slots_;
  uint64_t resident_ = 0;
  std::vector<uint64_t> per_table_;
};

}  // namespace dana::storage
