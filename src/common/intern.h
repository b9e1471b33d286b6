#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dana {

/// Dense string interner: maps each distinct name to a small integer id
/// (assigned in first-intern order, starting at 0) so hot paths can key
/// flat arrays and hash integers instead of hashing and comparing strings
/// per event. Ids are stable for the interner's lifetime; `Name` returns
/// the canonical spelling. Used by the scheduler (workload ids) and the
/// buffer pool (table names).
class Interner {
 public:
  static constexpr uint32_t kInvalidId = UINT32_MAX;

  /// Id of `name`, interning it on first sight.
  uint32_t Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    // Map keys own their characters (names_ may reallocate on growth).
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Id of `name` if already interned, else kInvalidId. Never allocates.
  uint32_t Find(std::string_view name) const {
    auto it = ids_.find(name);
    return it != ids_.end() ? it->second : kInvalidId;
  }

  /// Canonical spelling of `id` (must be a value previously returned).
  const std::string& Name(uint32_t id) const { return names_[id]; }

  /// Number of distinct names interned (ids are 0..size()-1).
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }

  void clear() {
    ids_.clear();
    names_.clear();
  }

 private:
  /// Heterogeneous hashing: lookups take string_view without constructing
  /// a std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  std::unordered_map<std::string, uint32_t, Hash, Eq> ids_;
  std::vector<std::string> names_;
};

}  // namespace dana
