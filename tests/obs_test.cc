// Tests for the observability layer (src/obs/): deterministic JSON, the
// metric registry, the slot-timeline tracer, BENCH_*.json emission, and
// the bench_compare regression gate.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/bench_compare.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stats_writer.h"
#include "obs/trace.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "support/synthetic_executor.h"

namespace dana::obs {
namespace {

// ---------------------------------------------------------------------------
// Json: deterministic serialization + round-trip parse
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpFormatsEveryType) {
  Json o = Json::Object();
  o.Set("null", Json());
  o.Set("yes", Json(true));
  o.Set("no", Json(false));
  o.Set("int", Json(42));
  o.Set("frac", Json(1.5));
  o.Set("str", Json("hi \"there\"\n"));
  Json arr = Json::Array();
  arr.Append(Json(1));
  arr.Append(Json(2));
  o.Set("arr", std::move(arr));
  EXPECT_EQ(o.Dump(),
            "{\"null\":null,\"yes\":true,\"no\":false,\"int\":42,"
            "\"frac\":1.5,\"str\":\"hi \\\"there\\\"\\n\","
            "\"arr\":[1,2]}");
}

TEST(JsonTest, FormatNumberIsDeterministicAndRoundTrips) {
  // Integral doubles print without a decimal point.
  EXPECT_EQ(Json::FormatNumber(0.0), "0");
  EXPECT_EQ(Json::FormatNumber(42.0), "42");
  EXPECT_EQ(Json::FormatNumber(-7.0), "-7");
  // Non-integral values use the shortest string that re-parses exactly.
  EXPECT_EQ(Json::FormatNumber(0.1), "0.1");
  EXPECT_EQ(Json::FormatNumber(1.0 / 3.0), "0.3333333333333333");
  // NaN / inf are not representable in JSON: serialized as null.
  EXPECT_EQ(Json::FormatNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(Json::FormatNumber(std::numeric_limits<double>::infinity()),
            "null");
  // Shortest-round-trip really round-trips.
  for (double v : {3.141592653589793, 0.7311438609164169, 1e-9, 123456.789}) {
    auto parsed = Json::Parse(Json::FormatNumber(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->AsNumber(), v);
  }
}

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string doc =
      "{\"a\":1,\"b\":[true,false,null,\"x\\u00e9\"],\"c\":{\"d\":-2.5}}";
  auto parsed = Json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Member order is preserved, so dump(parse(x)) == x for compact input
  // (modulo unicode escapes, which decode to UTF-8).
  EXPECT_EQ(parsed->Dump(),
            "{\"a\":1,\"b\":[true,false,null,\"x\xc3\xa9\"],"
            "\"c\":{\"d\":-2.5}}");
  const Json* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->size(), 4u);
  EXPECT_TRUE(b->at(2).is_null());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,2").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST(JsonTest, SetReplacesInPlacePreservingOrder) {
  Json o = Json::Object();
  o.Set("first", Json(1));
  o.Set("second", Json(2));
  o.Set("first", Json(10));  // overwrite keeps position
  EXPECT_EQ(o.Dump(), "{\"first\":10,\"second\":2}");
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CountersGaugesHistograms) {
  MetricRegistry reg;
  reg.counter("c")->Increment();
  reg.counter("c")->Increment(2.5);
  EXPECT_DOUBLE_EQ(reg.counter("c")->value(), 3.5);
  reg.gauge("g")->Set(1.0);
  reg.gauge("g")->Set(7.0);  // last write wins
  EXPECT_DOUBLE_EQ(reg.gauge("g")->value(), 7.0);
  reg.histogram("h")->Record(1.0);
  reg.histogram("h")->Record(3.0);
  EXPECT_EQ(reg.histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(reg.histogram("h")->Mean(), 2.0);
  reg.Clear();
  EXPECT_DOUBLE_EQ(reg.counter("c")->value(), 0.0);
  EXPECT_EQ(reg.histogram("h")->count(), 0u);
}

TEST(MetricRegistryTest, NullSafeHelpersAreNoOpsOnNull) {
  Count(nullptr, "x");
  SetGauge(nullptr, "x", 1.0);
  Observe(nullptr, "x", 1.0);  // must not crash
  MetricRegistry reg;
  Count(&reg, "x", 2.0);
  SetGauge(&reg, "y", 3.0);
  Observe(&reg, "z", 4.0);
  EXPECT_DOUBLE_EQ(reg.counter("x")->value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("y")->value(), 3.0);
  EXPECT_EQ(reg.histogram("z")->count(), 1u);
}

TEST(MetricRegistryTest, HistogramPercentileAgreesWithStatsPercentile) {
  MetricRegistry reg;
  Histogram* h = reg.histogram("lat");
  std::vector<double> samples;
  // A deterministic awkward sequence (not sorted, repeated values).
  double v = 0.5;
  for (int i = 0; i < 257; ++i) {
    v = std::fmod(v * 997.0 + 1.0, 100.0);
    h->Record(v);
    samples.push_back(v);
  }
  for (double p : {0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h->Percentile(p), dana::Percentile(samples, p))
        << "p=" << p;
  }
  EXPECT_TRUE(std::isnan(reg.histogram("empty")->Percentile(50)));
}

// A two-workload fake: "short" costs 1 s, "long" costs 10 s, both always
// cold (modelled, with warmth 0). Enough schedule structure (queueing,
// batching, a compile) to exercise every registry family.
struct ObsFakeExecutor : sched::SyntheticExecutor {
  ObsFakeExecutor() {
    for (const auto& [id, service_s] : {std::pair{"short", 1.0},
                                        std::pair{"long", 10.0}}) {
      Set(id, {.shared_s = 0.5, .per_query_s = service_s,
               .estimate_s = service_s, .compile_s = 0.25});
      SetWarm(id, 0, 0.0);
    }
  }
};

std::vector<sched::QueryRequest> ObsStream() {
  std::vector<sched::QueryRequest> stream;
  const char* ids[] = {"short", "long", "short", "short", "long", "short"};
  for (uint64_t i = 0; i < 6; ++i) {
    sched::QueryRequest r;
    r.id = i + 1;
    r.workload_id = ids[i];
    r.arrival = dana::SimTime::Seconds(static_cast<double>(i) * 0.5);
    stream.push_back(r);
  }
  return stream;
}

TEST(MetricRegistryTest, SnapshotIsByteIdenticalAcrossIdenticalRuns) {
  std::string dumps[2];
  for (int run = 0; run < 2; ++run) {
    ObsFakeExecutor exec;
    MetricRegistry reg;
    sched::Scheduler scheduler({.slots = 2,
                                .policy = sched::Policy::kSjf,
                                .max_batch = 2,
                                .metrics = &reg},
                               &exec);
    auto report = scheduler.Run(ObsStream());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    dumps[run] = reg.ToJson().Dump(2);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_FALSE(dumps[0].empty());
}

TEST(MetricRegistryTest, SchedulerPublishesTheMetricCatalog) {
  ObsFakeExecutor exec;
  MetricRegistry reg;
  sched::Scheduler scheduler(
      {.slots = 2, .policy = sched::Policy::kFcfs, .metrics = &reg}, &exec);
  auto report = scheduler.Run(ObsStream());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  Json snap = reg.ToJson();
  const Json* counters = snap.Find("counters");
  const Json* gauges = snap.Find("gauges");
  const Json* histograms = snap.Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);
  // Counters mirror the report.
  EXPECT_DOUBLE_EQ(counters->Find("sched.queries")->AsNumber(), 6.0);
  EXPECT_DOUBLE_EQ(counters->Find("sched.compile.misses")->AsNumber(),
                   static_cast<double>(report->compile_misses));
  EXPECT_DOUBLE_EQ(counters->Find("sched.compile.hits")->AsNumber(),
                   static_cast<double>(report->compile_hits));
  // Gauges mirror the derived report stats.
  EXPECT_DOUBLE_EQ(gauges->Find("sched.throughput_qps")->AsNumber(),
                   report->ThroughputQps());
  EXPECT_DOUBLE_EQ(gauges->Find("sched.makespan_s")->AsNumber(),
                   report->makespan.seconds());
  // The latency histogram holds one sample per query and agrees with the
  // report's percentile math (both delegate to common/stats.h Percentile).
  const Json* lat = histograms->Find("sched.latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->AsNumber(), 6.0);
  EXPECT_DOUBLE_EQ(lat->Find("p95")->AsNumber(),
                   report->LatencyPercentile(95).seconds());
}

TEST(MetricRegistryTest, GoldenSnapshotForAFixedSchedule) {
  // A pinned end-to-end snapshot: 6 queries, 1 slot, FCFS, no batching.
  // Every number below is forced by the fake's cost model (0.5 s shared +
  // 1 s/10 s per query, 0.25 s first-compile), so a change here means the
  // scheduler's accounting — not just the obs layer — moved.
  ObsFakeExecutor exec;
  MetricRegistry reg;
  sched::Scheduler scheduler(
      {.slots = 1, .policy = sched::Policy::kFcfs, .metrics = &reg}, &exec);
  auto report = scheduler.Run(ObsStream());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Json snap = reg.ToJson();
  const Json* counters = snap.Find("counters");
  const Json* gauges = snap.Find("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("sched.queries")->AsNumber(), 6.0);
  EXPECT_DOUBLE_EQ(counters->Find("sched.batches")->AsNumber(), 6.0);
  EXPECT_DOUBLE_EQ(counters->Find("sched.compile.misses")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(counters->Find("sched.compile.hits")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(counters->Find("sched.preemptions")->AsNumber(), 0.0);
  // Every run goes through the one engine: unpreempted, one slice a batch.
  EXPECT_DOUBLE_EQ(counters->Find("sched.slices")->AsNumber(), 6.0);
  // Serial service: 6 * 0.5 shared + 4 * 1 + 2 * 10 private + 2 * 0.25
  // compile = 27.5 s busy from first arrival at t=0 -> makespan 27.5 s.
  EXPECT_DOUBLE_EQ(gauges->Find("sched.makespan_s")->AsNumber(), 27.5);
  EXPECT_DOUBLE_EQ(gauges->Find("sched.mean_batch_size")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(gauges->Find("sched.warm_hit_rate")->AsNumber(), 0.0);
}

// ---------------------------------------------------------------------------
// SlotTracer
// ---------------------------------------------------------------------------

TEST(SlotTracerTest, EmitsWellFormedChromeTraceJson) {
  SlotTracer tracer;
  tracer.Span(0, "run w1", "dispatch", dana::SimTime::Seconds(1),
              dana::SimTime::Seconds(3), {{"queries", Json(uint64_t{2})}});
  tracer.Instant(1, "checkpoint w2", "preempt", dana::SimTime::Seconds(2.5));
  EXPECT_EQ(tracer.event_count(), 2u);

  Json doc = tracer.ToJson();
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata first: process name + one thread name per slot seen (0, 1),
  // then the two recorded events.
  ASSERT_EQ(events->size(), 5u);
  EXPECT_EQ(events->at(0).Find("ph")->AsString(), "M");
  // The recorded span: complete event with microsecond ts/dur on slot 0.
  const Json& span = events->at(3);
  EXPECT_EQ(span.Find("ph")->AsString(), "X");
  EXPECT_EQ(span.Find("name")->AsString(), "run w1");
  EXPECT_EQ(span.Find("cat")->AsString(), "dispatch");
  EXPECT_DOUBLE_EQ(span.Find("ts")->AsNumber(), 1e6);
  EXPECT_DOUBLE_EQ(span.Find("dur")->AsNumber(), 2e6);
  EXPECT_DOUBLE_EQ(span.Find("pid")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(span.Find("tid")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(span.Find("args")->Find("queries")->AsNumber(), 2.0);
  // The instant event.
  const Json& inst = events->at(4);
  EXPECT_EQ(inst.Find("ph")->AsString(), "i");
  EXPECT_DOUBLE_EQ(inst.Find("ts")->AsNumber(), 2.5e6);
  EXPECT_DOUBLE_EQ(inst.Find("tid")->AsNumber(), 1.0);
  // The document round-trips through the parser (well-formed JSON).
  auto reparsed = Json::Parse(doc.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Find("traceEvents")->size(), 5u);
}

TEST(SlotTracerTest, SchedulerEmitsSpansOnTheSimulatedClock) {
  ObsFakeExecutor exec;
  SlotTracer tracer;
  sched::Scheduler scheduler(
      {.slots = 2, .policy = sched::Policy::kFcfs, .tracer = &tracer}, &exec);
  auto report = scheduler.Run(ObsStream());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(tracer.event_count(), 0u);
  Json doc = tracer.ToJson();
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t spans = 0;
  for (const Json& e : events->items()) {
    if (e.Find("ph")->AsString() != "X") continue;
    ++spans;
    EXPECT_GE(e.Find("ts")->AsNumber(), 0.0);
    EXPECT_GE(e.Find("dur")->AsNumber(), 0.0);
    EXPECT_LT(e.Find("tid")->AsNumber(), 2.0);  // only slots 0 and 1 exist
  }
  // Every batch dispatch records a run span; the two compiles record
  // compile spans on top.
  EXPECT_GE(spans, 6u);
}

// ---------------------------------------------------------------------------
// StatsWriter (BENCH_*.json) + bench_compare
// ---------------------------------------------------------------------------

TEST(StatsWriterTest, EmitsTheDocumentedSchema) {
  StatsWriter w("sched");
  w.SetConfig("fast", Json(true));
  w.SetConfig("queries", Json(100));
  w.Add("p95_s", 1.5, Direction::kLowerIsBetter);
  w.Add("throughput_qps", 2.0, Direction::kHigherIsBetter);
  w.Add("wall_time_s", 10.0, Direction::kInfo);
  w.Add("p95_s", 1.25, Direction::kLowerIsBetter);  // overwrite, keeps slot
  EXPECT_EQ(w.metric_count(), 3u);
  Json doc = w.ToJson();
  EXPECT_EQ(doc.Find("bench")->AsString(), "sched");
  EXPECT_DOUBLE_EQ(doc.Find("schema_version")->AsNumber(), 1.0);
  EXPECT_TRUE(doc.Find("config")->Find("fast")->AsBool());
  const Json* m = doc.Find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->members()[0].first, "p95_s");  // insertion order preserved
  EXPECT_DOUBLE_EQ(m->Find("p95_s")->Find("value")->AsNumber(), 1.25);
  EXPECT_EQ(m->Find("p95_s")->Find("better")->AsString(), "lower");
  EXPECT_EQ(m->Find("throughput_qps")->Find("better")->AsString(), "higher");
  EXPECT_EQ(m->Find("wall_time_s")->Find("better")->AsString(), "info");
  // The 3-arg Add carries no tolerance member; only the 4-arg overload does.
  EXPECT_EQ(m->Find("p95_s")->Find("tolerance"), nullptr);
}

TEST(StatsWriterTest, TolerantAddSerializesPerMetricTolerance) {
  StatsWriter w("micro");
  w.Add("sim_qps", 1e6, Direction::kHigherIsBetter, 0.75);
  Json doc = w.ToJson();
  const Json* entry = doc.Find("metrics")->Find("sim_qps");
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->Find("value")->AsNumber(), 1e6);
  EXPECT_EQ(entry->Find("better")->AsString(), "higher");
  ASSERT_NE(entry->Find("tolerance"), nullptr);
  EXPECT_DOUBLE_EQ(entry->Find("tolerance")->AsNumber(), 0.75);
}

// Builds a BENCH document from (name, value, direction) triples with a
// one-knob config.
Json Bench(std::vector<std::pair<std::string, std::pair<double, Direction>>>
               metrics,
           double knob = 1.0) {
  StatsWriter w("t");
  w.SetConfig("knob", Json(knob));
  for (const auto& [name, vd] : metrics) w.Add(name, vd.first, vd.second);
  return w.ToJson();
}

TEST(BenchCompareTest, WithinToleranceIsClean) {
  Json base = Bench({{"p95", {10.0, Direction::kLowerIsBetter}},
                     {"qps", {2.0, Direction::kHigherIsBetter}}});
  Json fresh = Bench({{"p95", {10.9, Direction::kLowerIsBetter}},
                      {"qps", {1.85, Direction::kHigherIsBetter}}});
  auto report = CompareBenchJson(base, fresh, 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->HasRegression());
  EXPECT_FALSE(report->deltas[0].regressed);
  EXPECT_FALSE(report->deltas[1].regressed);
}

TEST(BenchCompareTest, FlagsRegressionsInEitherDirection) {
  Json base = Bench({{"p95", {10.0, Direction::kLowerIsBetter}},
                     {"qps", {2.0, Direction::kHigherIsBetter}}});
  // p95 +15% (bad for "lower"), qps -15% (bad for "higher").
  Json fresh = Bench({{"p95", {11.5, Direction::kLowerIsBetter}},
                      {"qps", {1.7, Direction::kHigherIsBetter}}});
  auto report = CompareBenchJson(base, fresh, 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasRegression());
  EXPECT_TRUE(report->deltas[0].regressed);
  EXPECT_NEAR(report->deltas[0].relative_change, 0.15, 1e-12);
  EXPECT_TRUE(report->deltas[1].regressed);
  // A looser tolerance accepts the same numbers.
  auto loose = CompareBenchJson(base, fresh, 0.20);
  ASSERT_TRUE(loose.ok());
  EXPECT_FALSE(loose->HasRegression());
}

TEST(BenchCompareTest, BaselineTolerancePerMetricOverridesGlobal) {
  // A wall-clock scoreboard (tolerance 0.75 on its baseline entry) rides in
  // the same file as a strictly gated simulated metric: a -40% dip passes
  // the wide per-metric gate but the same dip on the strict metric fails
  // under the global tolerance.
  StatsWriter base_w("t");
  base_w.SetConfig("knob", Json(1.0));
  base_w.Add("sim_qps", 100.0, Direction::kHigherIsBetter, 0.75);
  base_w.Add("p95", 10.0, Direction::kLowerIsBetter);
  StatsWriter fresh_w("t");
  fresh_w.SetConfig("knob", Json(1.0));
  fresh_w.Add("sim_qps", 60.0, Direction::kHigherIsBetter, 0.75);
  fresh_w.Add("p95", 14.0, Direction::kLowerIsBetter);
  auto report = CompareBenchJson(base_w.ToJson(), fresh_w.ToJson(), 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->deltas[0].regressed);  // -40% within its own 0.75
  EXPECT_DOUBLE_EQ(report->deltas[0].tolerance, 0.75);
  EXPECT_TRUE(report->deltas[1].regressed);  // +40% past the global 0.10
  EXPECT_DOUBLE_EQ(report->deltas[1].tolerance, 0.10);
  // Past even the wide gate, the scoreboard still trips.
  StatsWriter collapsed_w("t");
  collapsed_w.SetConfig("knob", Json(1.0));
  collapsed_w.Add("sim_qps", 10.0, Direction::kHigherIsBetter, 0.75);
  collapsed_w.Add("p95", 10.0, Direction::kLowerIsBetter);
  auto collapse =
      CompareBenchJson(base_w.ToJson(), collapsed_w.ToJson(), 0.10);
  ASSERT_TRUE(collapse.ok());
  EXPECT_TRUE(collapse->deltas[0].regressed);
}

TEST(BenchCompareTest, ImprovementsAreReportedNotFailed) {
  Json base = Bench({{"p95", {10.0, Direction::kLowerIsBetter}}});
  Json fresh = Bench({{"p95", {5.0, Direction::kLowerIsBetter}}});
  auto report = CompareBenchJson(base, fresh, 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->HasRegression());
  EXPECT_TRUE(report->deltas[0].improved);
}

TEST(BenchCompareTest, InfoMetricsNeverGate) {
  Json base = Bench({{"wall", {10.0, Direction::kInfo}}});
  Json fresh = Bench({{"wall", {1000.0, Direction::kInfo}}});
  auto report = CompareBenchJson(base, fresh, 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->HasRegression());
}

TEST(BenchCompareTest, MissingBaselineMetricFails) {
  Json base = Bench({{"p95", {10.0, Direction::kLowerIsBetter}},
                     {"gone", {1.0, Direction::kInfo}}});
  Json fresh = Bench({{"p95", {10.0, Direction::kLowerIsBetter}},
                      {"brand_new", {5.0, Direction::kInfo}}});
  auto report = CompareBenchJson(base, fresh, 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasRegression());  // "gone" vanished
  EXPECT_TRUE(report->deltas[1].missing);
  // New fresh-only metrics are reported, not failed.
  ASSERT_EQ(report->new_metrics.size(), 1u);
  EXPECT_EQ(report->new_metrics[0], "brand_new");
}

TEST(BenchCompareTest, ConfigMismatchFailsOutright) {
  Json base = Bench({{"p95", {10.0, Direction::kLowerIsBetter}}}, 1.0);
  Json fresh = Bench({{"p95", {10.0, Direction::kLowerIsBetter}}}, 2.0);
  auto report = CompareBenchJson(base, fresh, 0.10);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->config_mismatch);
  EXPECT_TRUE(report->HasRegression());
  EXPECT_FALSE(report->config_diff.empty());
}

TEST(BenchCompareTest, ZeroBaselineHandledWithoutDividing) {
  Json base = Bench({{"errs", {0.0, Direction::kLowerIsBetter}}});
  Json same = Bench({{"errs", {0.0, Direction::kLowerIsBetter}}});
  Json worse = Bench({{"errs", {3.0, Direction::kLowerIsBetter}}});
  auto clean = CompareBenchJson(base, same, 0.10);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->HasRegression());
  auto bad = CompareBenchJson(base, worse, 0.10);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->HasRegression());
  EXPECT_TRUE(std::isinf(bad->deltas[0].relative_change));
}

}  // namespace
}  // namespace dana::obs
