#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"

namespace dana::sched {

/// Keyed cache of compiled UDF designs shared by every query the scheduler
/// dispatches: the first query of an algorithm/table shape pays
/// `compiler::Compile`, repeats reuse the stored design — the multi-query
/// analogue of the catalog storing the compiled UDF after its first query
/// (paper Figure 2).
///
/// The cache owns the designs; returned pointers stay valid for the cache's
/// lifetime (std::map nodes never move). Each builder call counts one miss,
/// failed builds included; each call served from a stored design counts
/// one hit. A failed build is not cached, so the next request retries.
///
/// Single-threaded, like the rest of the simulator.
class CompileCache {
 public:
  using Builder = std::function<dana::Result<compiler::CompiledUdf>()>;

  /// The cached design for `key`, invoking `builder` on the first request.
  dana::Result<const compiler::CompiledUdf*> GetOrCompile(
      const std::string& key, const Builder& builder);

  /// Lookup without building; nullptr when absent. Does not count as a hit.
  const compiler::CompiledUdf* Find(const std::string& key) const;

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return cache_.size(); }

  /// Publishes the cache's state as gauges `<prefix>.hits` / `.misses` /
  /// `.size` into `metrics`; a null registry is a no-op.
  void PublishTo(obs::MetricRegistry* metrics,
                 const std::string& prefix = "compile_cache") const {
    if (metrics == nullptr) return;
    obs::SetGauge(metrics, prefix + ".hits", static_cast<double>(hits()));
    obs::SetGauge(metrics, prefix + ".misses", static_cast<double>(misses()));
    obs::SetGauge(metrics, prefix + ".size", static_cast<double>(size()));
  }

 private:
  std::map<std::string, compiler::CompiledUdf> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace dana::sched
