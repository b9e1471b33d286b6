#include "sched/scheduler.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace dana::sched {

double ScheduleReport::ThroughputQps() const {
  if (queries.empty() || makespan.seconds() <= 0) return 0.0;
  return static_cast<double>(queries.size()) / makespan.seconds();
}

dana::SimTime ScheduleReport::MeanLatency() const {
  std::vector<double> ns;
  ns.reserve(queries.size());
  for (const QueryStat& q : queries) ns.push_back(q.Latency().nanos());
  return dana::SimTime::Nanos(Mean(ns));
}

dana::SimTime ScheduleReport::MeanWait() const {
  std::vector<double> ns;
  ns.reserve(queries.size());
  for (const QueryStat& q : queries) ns.push_back(q.Wait().nanos());
  return dana::SimTime::Nanos(Mean(ns));
}

dana::SimTime ScheduleReport::LatencyPercentile(double p) const {
  std::vector<double> ns;
  ns.reserve(queries.size());
  for (const QueryStat& q : queries) ns.push_back(q.Latency().nanos());
  return dana::SimTime::Nanos(Percentile(std::move(ns), p));
}

double ScheduleReport::MeanBatchSize() const {
  if (batches == 0) return 1.0;
  return static_cast<double>(queries.size()) / static_cast<double>(batches);
}

double ScheduleReport::WarmHitRate() const {
  uint64_t modeled = 0, hits = 0;
  for (const QueryStat& q : queries) {
    if (!q.residency_modeled) continue;
    ++modeled;
    if (q.WarmHit()) ++hits;
  }
  if (modeled == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(hits) / static_cast<double>(modeled);
}

double ScheduleReport::MeanWarmFraction() const {
  uint64_t modeled = 0;
  double total = 0.0;
  for (const QueryStat& q : queries) {
    if (!q.residency_modeled) continue;
    ++modeled;
    total += q.warm_fraction;
  }
  if (modeled == 0) return std::numeric_limits<double>::quiet_NaN();
  return total / static_cast<double>(modeled);
}

double ScheduleReport::MeanOsWarmFraction() const {
  uint64_t modeled = 0;
  double total = 0.0;
  for (const QueryStat& q : queries) {
    if (!q.residency_modeled) continue;
    ++modeled;
    total += q.os_warm_fraction;
  }
  if (modeled == 0) return std::numeric_limits<double>::quiet_NaN();
  return total / static_cast<double>(modeled);
}

uint64_t ScheduleReport::ClassQueries(QueryClass cls) const {
  uint64_t n = 0;
  for (const QueryStat& q : queries) {
    if (q.query_class == cls) ++n;
  }
  return n;
}

dana::SimTime ScheduleReport::ClassMeanLatency(QueryClass cls) const {
  std::vector<double> ns;
  for (const QueryStat& q : queries) {
    if (q.query_class == cls) ns.push_back(q.Latency().nanos());
  }
  return dana::SimTime::Nanos(Mean(ns));
}

dana::SimTime ScheduleReport::ClassLatencyPercentile(QueryClass cls,
                                                     double p) const {
  std::vector<double> ns;
  for (const QueryStat& q : queries) {
    if (q.query_class == cls) ns.push_back(q.Latency().nanos());
  }
  return dana::SimTime::Nanos(Percentile(std::move(ns), p));
}

double ScheduleReport::ClassThroughputQps(QueryClass cls) const {
  if (makespan.seconds() <= 0) return 0.0;
  return static_cast<double>(ClassQueries(cls)) / makespan.seconds();
}

void PublishReportMetrics(const ScheduleReport& report,
                          obs::MetricRegistry* metrics) {
  if (metrics == nullptr) return;
  obs::Count(metrics, "sched.queries",
             static_cast<double>(report.queries.size()));
  obs::Count(metrics, "sched.batches", static_cast<double>(report.batches));
  obs::Count(metrics, "sched.compile.hits",
             static_cast<double>(report.compile_hits));
  obs::Count(metrics, "sched.compile.misses",
             static_cast<double>(report.compile_misses));
  obs::Count(metrics, "sched.preemptions",
             static_cast<double>(report.preemptions));

  obs::SetGauge(metrics, "sched.throughput_qps", report.ThroughputQps());
  obs::SetGauge(metrics, "sched.makespan_s", report.makespan.seconds());
  obs::SetGauge(metrics, "sched.mean_batch_size", report.MeanBatchSize());
  obs::SetGauge(metrics, "sched.warm_hit_rate", report.WarmHitRate());
  obs::SetGauge(metrics, "sched.mean_warm_fraction",
                report.MeanWarmFraction());
  obs::SetGauge(metrics, "sched.shared_service_s",
                report.shared_service.seconds());
  obs::SetGauge(metrics, "sched.private_service_s",
                report.private_service.seconds());
  obs::SetGauge(metrics, "sched.preempt_overhead_s",
                report.preemption_overhead.seconds());

  for (const QueryStat& q : report.queries) {
    obs::Observe(metrics, "sched.latency_s", q.Latency().seconds());
    obs::Observe(metrics, "sched.wait_s", q.Wait().seconds());
    obs::Observe(metrics, "sched.batch_size",
                 static_cast<double>(q.batch_size));
    if (q.residency_modeled) {
      obs::Observe(metrics, "sched.warm_fraction", q.warm_fraction);
    }
    obs::Observe(metrics,
                 std::string("sched.latency_s.") +
                     QueryClassName(q.query_class),
                 q.Latency().seconds());
  }
}

}  // namespace dana::sched
