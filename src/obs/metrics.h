#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/json.h"

namespace dana {
class TablePrinter;
}

namespace dana::obs {

/// Monotonic event counter ("how many times did X happen / how much of X
/// accumulated"). Values are doubles so time totals (seconds) and plain
/// counts share one type; integral counts stay exactly representable.
///
/// Thread-safe: Increment is a relaxed atomic add, so concurrent
/// publishers need no lock. Totals are order-independent for integral
/// counts; float accumulation order follows the interleaving, so
/// time-valued counters published from several threads are only
/// reproducible up to rounding.
class Counter {
 public:
  void Increment(double by = 1.0) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value ("what is X right now").
/// Thread-safe: Set/value are relaxed atomic store/load.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sample sink with percentile readout. Samples are kept raw (the
/// simulator's runs are small — hundreds of queries), so Percentile()
/// agrees exactly with common/stats.h Percentile over the same samples and
/// two identical runs serialize identically.
///
/// Thread-safe: Record appends under an internal mutex. Concurrent
/// recorders may interleave in any order; every readout here is
/// order-independent (count/sum/mean/min/max and rank-based percentiles
/// over a sorted copy). samples() returns insertion order and is meant for
/// post-run single-threaded readers (tests, StatsWriter).
class Histogram {
 public:
  void Record(double v) {
    dana::MutexLock lock(mu_);
    samples_.push_back(v);
  }
  uint64_t count() const {
    dana::MutexLock lock(mu_);
    return samples_.size();
  }
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// p in [0, 100]; NaN for an empty histogram (common/stats.h semantics).
  double Percentile(double p) const;
  std::vector<double> samples() const {
    dana::MutexLock lock(mu_);
    return samples_;
  }

 private:
  mutable dana::Mutex mu_;
  std::vector<double> samples_ GUARDED_BY(mu_);
};

/// Named registry the instrumented subsystems (Scheduler,
/// DanaQueryExecutor, BufferPool, CompileCache) publish into.
///
/// Cost model: instrumentation sites hold a `MetricRegistry*` that is null
/// when telemetry is off — the entire cost of disabled telemetry is one
/// pointer test (the `Count`/`Observe`/`Measure` helpers below inline it).
/// When enabled, metric objects are created on first use and looked up by
/// name; hot paths that publish per-event should resolve the pointer once
/// and increment through it.
///
/// Determinism: metrics live in a std::map, so snapshots iterate in name
/// order; given a deterministic simulation, two identical runs produce
/// byte-identical `ToJson().Dump()` output — the property the obs test
/// suite and the `dana sched --metrics-json` acceptance check pin.
///
/// Thread-safe: the name→metric maps are guarded by a registry mutex, and
/// the metric objects themselves are individually thread-safe (atomic
/// counters/gauges, mutexed histograms). Metric pointers are stable for
/// the registry's lifetime — Clear() is the only invalidating call and is
/// reserved for single-threaded points between runs — so hot paths may
/// cache the pointer once and publish lock-free through it.
class MetricRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Drops every metric (a fresh registry between runs). Not safe to call
  /// concurrently with holders of previously returned metric pointers.
  void Clear();

  /// Snapshot of every metric, sorted by name. Counters/gauges serialize
  /// as bare numbers; histograms as {count, mean, min, max, p50, p95, p99}.
  Json ToJson() const;

  /// The same snapshot as table rows (metric | type | value | p50 | p95 |
  /// p99) for the existing table_printer pipeline.
  TablePrinter ToTable() const;

 private:
  mutable dana::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

/// Null-safe helpers: the idiomatic publish call at an instrumentation
/// site. All compile to a pointer test when `r` is null, and are safe to
/// call from several threads when `r` is set.
inline void Count(MetricRegistry* r, const std::string& name,
                  double by = 1.0) {
  if (r != nullptr) r->counter(name)->Increment(by);
}
inline void SetGauge(MetricRegistry* r, const std::string& name, double v) {
  if (r != nullptr) r->gauge(name)->Set(v);
}
inline void Observe(MetricRegistry* r, const std::string& name, double v) {
  if (r != nullptr) r->histogram(name)->Record(v);
}

}  // namespace dana::obs
