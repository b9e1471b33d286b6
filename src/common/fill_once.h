#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace dana {

/// Concurrency-safe memo table with fill-once/wait semantics, the pattern
/// ZNS caches use for their zone-map results: a lookup either returns the
/// ready entry immediately or — when the key is cold — elects exactly one
/// caller to run the filler while every concurrent requester of the same
/// key blocks on a wait handle until the fill lands. N threads asking
/// for the same cold artifact therefore never duplicate the work.
///
/// Failure semantics: a failed fill is NOT cached. The waiters that joined
/// the in-flight fill receive its error status; the entry is then erased,
/// so the next requester retries the filler from scratch.
///
/// Pointer stability: values live behind per-entry allocations that are
/// never moved and — once ready — never erased, so returned pointers stay
/// valid for the map's lifetime (until Clear(), which must not race with
/// readers; it is meant for single-threaded points between runs).
template <typename K, typename V>
class FillOnceMap {
 public:
  using Filler = std::function<Result<V>()>;

  /// Returns the ready value for `key`, filling it first if needed. When
  /// this call ran the filler itself — successfully or not — `*filled_here`
  /// (if non-null) is set to true; ready hits and waits set it to false.
  Result<const V*> GetOrFill(const K& key, const Filler& filler,
                             bool* filled_here = nullptr) {
    if (filled_here != nullptr) *filled_here = false;
    std::shared_ptr<Entry> entry;
    {
      MutexLock lock(mu_);
      for (;;) {
        auto it = entries_.find(key);
        if (it == entries_.end()) {
          entry = std::make_shared<Entry>();
          entries_.emplace(key, entry);
          break;  // this caller fills
        }
        entry = it->second;
        if (entry->value.has_value()) return &*entry->value;
        // A fill is in flight: block on the shared wait handle. The fill
        // outcome for THIS generation is delivered to us even if the map
        // entry has already been erased (failure) by the filler.
        while (!entry->settled) cv_.Wait(mu_);
        if (entry->value.has_value()) return &*entry->value;
        return entry->error;
      }
    }
    // Run the filler outside the map lock so unrelated keys stay serviceable.
    if (filled_here != nullptr) *filled_here = true;
    Result<V> result = filler();
    {
      MutexLock lock(mu_);
      entry->settled = true;
      if (result.ok()) {
        entry->value.emplace(std::move(result).ValueOrDie());
      } else {
        entry->error = result.status();
        entries_.erase(key);  // next requester retries
      }
    }
    cv_.NotifyAll();
    if (!result.ok()) return result.status();
    return &*entry->value;
  }

  /// The ready value for `key`, or null when absent or still filling.
  const V* Find(const K& key) const {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second->value.has_value()) return nullptr;
    return &*it->second->value;
  }

  /// Number of ready entries (in-flight fills excluded).
  size_t size() const {
    MutexLock lock(mu_);
    size_t n = 0;
    for (const auto& [k, e] : entries_) {
      if (e->value.has_value()) ++n;
    }
    return n;
  }

  /// Drops every entry. Must not race with concurrent GetOrFill/Find or
  /// with readers of previously returned pointers.
  void Clear() {
    MutexLock lock(mu_);
    entries_.clear();
  }

 private:
  /// Per-key fill state. The fields are written only by the elected filler
  /// under mu_ and read by waiters under mu_ (the settled handshake); once
  /// `value` is engaged it is immutable, which is what lets GetOrFill hand
  /// out stable pointers after the lock is dropped.
  struct Entry {
    std::optional<V> value;        // set iff the fill succeeded
    Status error = Status::OK();   // set iff the fill failed
    bool settled = false;          // fill finished (either way)
  };

  mutable Mutex mu_;
  CondVar cv_;
  std::map<K, std::shared_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

}  // namespace dana
