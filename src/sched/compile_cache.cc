#include "sched/compile_cache.h"

#include <utility>

namespace dana::sched {

dana::Result<const compiler::CompiledUdf*> CompileCache::GetOrCompile(
    const std::string& key, const Builder& builder) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return &it->second;
  }
  ++misses_;
  DANA_ASSIGN_OR_RETURN(compiler::CompiledUdf udf, builder());
  return &cache_.emplace(key, std::move(udf)).first->second;
}

const compiler::CompiledUdf* CompileCache::Find(const std::string& key) const {
  auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : &it->second;
}

}  // namespace dana::sched
