#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/fill_once.h"
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
/// lifetime.
///
/// Thread-safe with fill-once/wait semantics: when N threads request the
/// same cold key concurrently, exactly one runs the builder while the
/// others block on the entry's wait handle and then share the result —
/// the design is never compiled twice. The builder call that fills counts
/// one miss (failed builds included, matching the single-threaded
/// accounting); every call served from a ready entry or a successful wait
/// counts one hit. A failed build is not cached: its waiters receive the
/// error and the next requester retries.
class CompileCache {
 public:
  using Builder = std::function<dana::Result<compiler::CompiledUdf>()>;

  /// The cached design for `key`, invoking `builder` on the first request.
  /// Concurrent requesters of a cold key block until the single in-flight
  /// build settles.
  dana::Result<const compiler::CompiledUdf*> GetOrCompile(
      const std::string& key, const Builder& builder);

  /// Lookup without building; nullptr when absent or still compiling.
  /// Does not count as a hit.
  const compiler::CompiledUdf* Find(const std::string& key) const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
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
  dana::FillOnceMap<std::string, compiler::CompiledUdf> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace dana::sched
