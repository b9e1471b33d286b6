#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "common/stats.h"
#include "common/table_printer.h"

namespace dana::obs {

double Histogram::Sum() const {
  double total = 0.0;
  for (double v : samples_) total += v;
  return total;
}

double Histogram::Mean() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return Sum() / static_cast<double>(samples_.size());
}

double Histogram::Min() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::Max() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::Percentile(double p) const {
  return dana::Percentile(samples_, p);
}

Counter* MetricRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

Json MetricRegistry::ToJson() const {
  Json root = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, c] : counters_) counters.Set(name, c->value());
  Json gauges = Json::Object();
  for (const auto& [name, g] : gauges_) gauges.Set(name, g->value());
  Json histograms = Json::Object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::Object();
    entry.Set("count", static_cast<double>(h->count()));
    entry.Set("mean", h->Mean());
    entry.Set("min", h->Min());
    entry.Set("max", h->Max());
    entry.Set("p50", h->Percentile(50));
    entry.Set("p95", h->Percentile(95));
    entry.Set("p99", h->Percentile(99));
    histograms.Set(name, std::move(entry));
  }
  root.Set("counters", std::move(counters));
  root.Set("gauges", std::move(gauges));
  root.Set("histograms", std::move(histograms));
  return root;
}

TablePrinter MetricRegistry::ToTable() const {
  TablePrinter table({"metric", "type", "value", "p50", "p95", "p99"});
  for (const auto& [name, c] : counters_) {
    table.AddRow({name, "counter", Json::FormatNumber(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    table.AddRow({name, "gauge", Json::FormatNumber(g->value())});
  }
  for (const auto& [name, h] : histograms_) {
    table.AddRow({name, "histogram",
                  "n=" + std::to_string(h->count()) +
                      " mean=" + Json::FormatNumber(h->Mean()),
                  Json::FormatNumber(h->Percentile(50)),
                  Json::FormatNumber(h->Percentile(95)),
                  Json::FormatNumber(h->Percentile(99))});
  }
  return table;
}

}  // namespace dana::obs
