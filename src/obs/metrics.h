#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"

namespace dana {
class TablePrinter;
}

namespace dana::obs {

/// Monotonic event counter ("how many times did X happen / how much of X
/// accumulated"). Values are doubles so time totals (seconds) and plain
/// counts share one type; integral counts stay exactly representable.
/// Single-threaded, so totals accumulate in publish order.
class Counter {
 public:
  void Increment(double by = 1.0) { value_ += by; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins instantaneous value ("what is X right now").
/// Single-threaded.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Sample sink with percentile readout. Samples are kept raw (the
/// simulator's runs are small — hundreds of queries), so Percentile()
/// agrees exactly with common/stats.h Percentile over the same samples and
/// two identical runs serialize identically. samples() returns insertion
/// order. Single-threaded.
class Histogram {
 public:
  void Record(double v) { samples_.push_back(v); }
  uint64_t count() const { return samples_.size(); }
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// p in [0, 100]; NaN for an empty histogram (common/stats.h semantics).
  double Percentile(double p) const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
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
/// Single-threaded. Metric pointers are stable until Clear(), so hot paths
/// may resolve a pointer once and publish through it.
class MetricRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Drops every metric (a fresh registry between runs); invalidates every
  /// previously returned metric pointer.
  void Clear();

  /// Snapshot of every metric, sorted by name. Counters/gauges serialize
  /// as bare numbers; histograms as {count, mean, min, max, p50, p95, p99}.
  Json ToJson() const;

  /// The same snapshot as table rows (metric | type | value | p50 | p95 |
  /// p99) for the existing table_printer pipeline.
  TablePrinter ToTable() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Null-safe helpers: the idiomatic publish call at an instrumentation
/// site. All compile to a pointer test when `r` is null.
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
