// bench_e2e: the repo's end-to-end benchmark.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--out-dir DIR] [--write-golden]
//   bench_e2e --all [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// One workload per process, single-threaded. An untraced run (--trace 0)
// sets the workload up kSetups times (setup_s is the median), then runs
// timed reps of identical work for S seconds (host_s is the median rep),
// checks every op, and reports the end-to-end metrics. A traced run
// (--trace 1) sets up once with host spans on, times untraced and then
// traced reps, replays the accelerator layers, and reports the per-layer
// metrics plus a Chrome trace. --all runs every workload in a child
// process of its own, so peak memory is per workload.
//
// The last line of standard output is one JSON object,
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}},
// and the process exits non-zero when any op failed. bench/e2e/README.md
// describes the workloads and metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table_printer.h"
#include "e2e.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/stats_writer.h"

namespace dana::e2e {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "train_public", "train_wide", "sched_open", "sched_preempt_tiered"};
  return names;
}

dana::Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                     uint64_t seed) {
  if (name == "train_public") return MakeTrainPublic(seed);
  if (name == "train_wide") return MakeTrainWide(seed);
  if (name == "sched_open") return MakeSchedOpen(seed);
  if (name == "sched_preempt_tiered") return MakeSchedPreemptTiered(seed);
  return Status::NotFound("unknown workload '" + name + "'");
}

namespace {

/// Fresh setups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed reps run for --seconds, but never fewer than this.
constexpr size_t kMinReps = 3;
/// Traced reps in a traced run.
constexpr size_t kTracedReps = 3;
/// How far two timings of the same work may differ on this kind of shared
/// host before a comparison of them counts as a failure.
constexpr double kHostNoise = 0.10;

// Host-speed reference. On a shared host the same rep can take 0.6 s in one
// minute and 1.4 s a few minutes later: other tenants contend for the
// cores and caches, and the program slows as a whole. So between setups
// and reps the benchmark times a fixed piece of its own work — sorting a
// fixed pseudo-random array — and a run reports its host times
// at the reference speed: measured seconds x kReferenceSeconds / the
// median of the run's reference timings. The workload and the reference
// slow together over a run, so the ratio holds still across runs; raw
// times are reported beside it.

constexpr size_t kReferenceElements = size_t{1} << 19;
/// The reference's median time on an unloaded 4-core Intel Xeon VM (the
/// host this benchmark was calibrated on), Release build.
constexpr double kReferenceSeconds = 0.0387;

/// Times the reference work once.
double ReferenceSeconds() {
  std::vector<uint32_t> values(kReferenceElements);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint32_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<uint32_t>(x >> 32);
  }
  const Clock::time_point start = Clock::now();
  std::sort(values.begin(), values.end());
  const double seconds = SecondsSince(start);
  if (!std::is_sorted(values.begin(), values.end())) std::abort();
  return seconds;
}

/// The factor that takes a run's raw host seconds to the reference speed,
/// from the reference timings taken through the run.
double ReferenceSpeed(const std::vector<double>& references) {
  return kReferenceSeconds / Percentile(references, 50);
}

/// An end-to-end metric and its bound: the share of the parent commit's
/// median by which it may worsen before a change counts as a regression.
/// BENCHMARK.json at the repo root declares the same three.
struct EndToEnd {
  const char* name;
  const char* unit;
  obs::Direction better;
  double bound;
};
constexpr EndToEnd kEndToEnd[] = {
    {"setup_s", "s", obs::Direction::kLowerIsBetter, 0.25},
    {"host_s", "s", obs::Direction::kLowerIsBetter, 0.22},
    {"peak_rss_mb", "MB", obs::Direction::kLowerIsBetter, 0.10},
};

struct Args {
  std::string workload;
  bool all = false;
  uint64_t seed = kDefaultSeed;
  double seconds = 8;
  bool trace = false;
  std::string out_dir;
  bool write_golden = false;
};

const char kUsage[] =
    "usage: bench_e2e (--workload <name> | --all) [--seed N] [--seconds S]\n"
    "                 [--trace 0|1] [--out-dir DIR] [--write-golden]\n"
    "workloads: train_public train_wide sched_open sched_preempt_tiered\n";

dana::Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--all") {
      a.all = true;
      continue;
    }
    if (flag == "--write-golden") {
      a.write_golden = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(flag + " needs a value");
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    bool valid = true;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 0);
      valid = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      valid = !value.empty() && *end == '\0' && a.seconds > 0 &&
              a.seconds <= 3600;
    } else if (flag == "--trace") {
      valid = value == "0" || value == "1";
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
    if (!valid) {
      return Status::InvalidArgument("bad value for " + flag + ": " + value);
    }
  }
  if (a.all == !a.workload.empty()) {
    return Status::InvalidArgument("give exactly one of --workload, --all");
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (!a.all &&
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    return Status::InvalidArgument("unknown workload " + a.workload);
  }
  return a;
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Where the trace goes: beside the BENCH files, in --out-dir, else
/// StatsWriter's default (DANA_BENCH_JSON_DIR, else the working directory).
std::string OutPath(const Args& args, const std::string& file) {
  std::string dir = args.out_dir;
  if (dir.empty()) {
    const char* env = std::getenv("DANA_BENCH_JSON_DIR");
    dir = env != nullptr && *env != '\0' ? env : ".";
  }
  return dir + "/" + file;
}

// ---------------------------------------------------------------------------
// Goldens: rep 1's simulated results at the default seed.
// ---------------------------------------------------------------------------

std::string GoldenPath(const std::string& workload) {
  return std::string(BENCH_E2E_DIR) + "/golden/" + workload + ".json";
}

obs::Json GoldenOf(const std::string& workload, const RepOutcome& rep) {
  obs::Json g = obs::Json::Object();
  g.Set("workload", workload);
  g.Set("seed", Hex(kDefaultSeed));
  g.Set("ops_per_rep", rep.ops);
  g.Set("digest", Hex(rep.digest));
  obs::Json sim = obs::Json::Object();
  for (const SimMetric& m : rep.sim) sim.Set(m.name, m.value);
  g.Set("sim", std::move(sim));
  return g;
}

/// OK when `rep` reproduces the committed golden exactly.
dana::Status CheckGolden(const std::string& workload, const RepOutcome& rep) {
  DANA_ASSIGN_OR_RETURN(obs::Json golden,
                        obs::Json::ReadFile(GoldenPath(workload)));
  const std::string want = golden.Dump();
  const std::string got = GoldenOf(workload, rep).Dump();
  if (want != got) {
    return Status::FailedPrecondition("simulated results differ from " +
                                      GoldenPath(workload) + "\n  golden:   " +
                                      want + "\n  this run: " + got);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  obs::Direction better;
  double bound;  ///< < 0: reported, never gated
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  TablePrinter table({"metric", "unit", "value", "better", "bound"});
  for (const Metric& m : metrics) {
    table.AddRow({m.name, m.unit, obs::Json::FormatNumber(m.value),
                  obs::DirectionName(m.better),
                  m.bound < 0 ? "-"
                              : TablePrinter::Fmt(m.bound * 100, 0) + "%"});
  }
  table.Print();
}

/// Writes BENCH_<area>.json: bounded metrics carry their bound as the
/// bench_compare tolerance.
dana::Status WriteStats(const std::string& area, const Args& args,
                        const std::vector<Metric>& metrics) {
  obs::StatsWriter stats(area);
  stats.SetConfig("workload", args.workload);
  stats.SetConfig("seed", Hex(args.seed));
  for (const Metric& m : metrics) {
    if (m.bound < 0) {
      stats.Add(m.name, m.value, m.better);
    } else {
      stats.Add(m.name, m.value, m.better, m.bound);
    }
  }
  DANA_ASSIGN_OR_RETURN(std::string path, stats.Write(args.out_dir));
  std::printf("wrote %s (%zu metrics)\n", path.c_str(), stats.metric_count());
  return Status::OK();
}

/// The result line: the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  obs::Json doc = obs::Json::Object();
  doc.Set("correct", correct);
  doc.Set("attempted", attempted);
  doc.Set("failed", failed);
  obs::Json values = obs::Json::Object();
  for (const Metric& m : metrics) {
    obs::Json v = obs::Json::Object();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    values.Set(m.name, std::move(v));
  }
  doc.Set("metrics", std::move(values));
  std::printf("%s\n", doc.Dump().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Timed reps
// ---------------------------------------------------------------------------

/// What a run's timed reps did.
struct Reps {
  std::vector<double> raw_s;        ///< each rep's host seconds
  std::vector<double> reference_s;  ///< the reference, timed between reps
  uint64_t attempted = 0;
  uint64_t failed = 0;
  RepOutcome first;
};

/// Runs reps for `seconds`, and at least `min_reps`. At the default seed the
/// first rep of the process is checked against the golden; a mismatch
/// fails the ops of every rep.
dana::Status RunReps(Workload* workload, const Args& args, Spans* spans,
                     double seconds, size_t min_reps, bool check_golden,
                     Reps* reps) {
  const Clock::time_point start = Clock::now();
  bool golden_ok = true;
  while (reps->raw_s.size() < min_reps || SecondsSince(start) < seconds) {
    reps->reference_s.push_back(ReferenceSeconds());
    DANA_ASSIGN_OR_RETURN(RepOutcome rep, workload->RunRep(spans));
    if (reps->raw_s.empty()) {
      reps->first = rep;
      if (check_golden && args.seed == kDefaultSeed && !args.write_golden) {
        dana::Status st = CheckGolden(args.workload, rep);
        if (!st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          golden_ok = false;
        }
      }
    }
    reps->raw_s.push_back(rep.host_s);
    reps->attempted += rep.ops;
    reps->failed += golden_ok ? rep.failed : rep.ops;
  }
  reps->reference_s.push_back(ReferenceSeconds());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

int RunEndToEnd(const Args& args) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_raw_s, references;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // one setup's memory at a time
    workload = std::move(MakeWorkload(args.workload, args.seed)).ValueOrDie();
    references.push_back(ReferenceSeconds());
    const Clock::time_point start = Clock::now();
    dana::Status st = workload->Setup(nullptr);
    setup_raw_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  Reps reps;
  dana::Status st = RunReps(workload.get(), args, nullptr, args.seconds,
                            kMinReps, /*check_golden=*/true, &reps);
  if (!st.ok()) {
    std::fprintf(stderr, "rep failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (args.write_golden) {
    if (args.seed != kDefaultSeed) {
      std::fprintf(stderr, "goldens are written at the default seed only\n");
      return 2;
    }
    st = GoldenOf(args.workload, reps.first)
             .WriteFile(GoldenPath(args.workload));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", GoldenPath(args.workload).c_str());
  }

  references.insert(references.end(), reps.reference_s.begin(),
                    reps.reference_s.end());
  const double speed = ReferenceSpeed(references);
  const double values[] = {Median(setup_raw_s) * speed,
                           Median(reps.raw_s) * speed, PeakRssMb()};
  std::vector<Metric> metrics;
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    const EndToEnd& e = kEndToEnd[i];
    metrics.push_back({e.name, values[i], e.unit, e.better, e.bound});
  }
  // The file bench_compare gates also carries the failure rate and the
  // simulated results (tolerance 0: they are deterministic), plus context.
  std::vector<Metric> all = metrics;
  all.push_back({"failed_frac",
                 static_cast<double>(reps.failed) /
                     static_cast<double>(reps.attempted),
                 "fraction", obs::Direction::kLowerIsBetter, 0});
  for (const SimMetric& m : reps.first.sim) {
    all.push_back({m.name, m.value, m.unit, m.better, 0});
  }
  using obs::Direction;
  const std::vector<Metric> info = {
      {"host_p25_s", Percentile(reps.raw_s, 25) * speed, "s",
       Direction::kInfo, -1},
      {"host_p75_s", Percentile(reps.raw_s, 75) * speed, "s",
       Direction::kInfo, -1},
      {"host_min_s", Percentile(reps.raw_s, 0) * speed, "s", Direction::kInfo,
       -1},
      {"host_raw_s", Median(reps.raw_s), "s", Direction::kInfo, -1},
      {"setup_raw_s", Median(setup_raw_s), "s", Direction::kInfo, -1},
      {"reference_s", Median(references), "s", Direction::kInfo, -1},
      {"reps", static_cast<double>(reps.raw_s.size()), "count",
       Direction::kInfo, -1},
      {"setups", static_cast<double>(setup_raw_s.size()), "count",
       Direction::kInfo, -1},
      {"ops_per_rep", static_cast<double>(reps.first.ops), "count",
       Direction::kInfo, -1},
      {"tuples_per_rep", static_cast<double>(reps.first.tuples), "count",
       Direction::kInfo, -1},
  };
  all.insert(all.end(), info.begin(), info.end());

  std::printf("bench_e2e %s: seed %s, %zu setups, %zu reps, %llu of %llu "
              "ops failed, rep digest %s\n",
              args.workload.c_str(), Hex(args.seed).c_str(),
              setup_raw_s.size(), reps.raw_s.size(),
              static_cast<unsigned long long>(reps.failed),
              static_cast<unsigned long long>(reps.attempted),
              Hex(reps.first.digest).c_str());
  PrintMetrics(all);
  st = WriteStats("e2e." + args.workload, args, all);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const bool correct = reps.failed == 0;
  PrintResult(correct, reps.attempted, reps.failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

/// Layer totals at one point of a traced run.
struct Snapshot {
  std::map<std::string, double> seconds;
  std::map<std::string, double> calls;
  std::map<std::string, double> counts;

  static Snapshot Of(const Spans& spans) {
    Snapshot s;
    for (const auto& [name, layer] : spans.layers()) {
      s.seconds[name] = layer->seconds;
      s.calls[name] = static_cast<double>(layer->calls);
    }
    s.counts = spans.counts();
    return s;
  }
};

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// The scheduler's calls into the executor that price or advance work;
/// sched.self is sched.run minus them and any endpoint measurement.
const char* const kExecLayers[] = {
    "sched.exec.begin", "sched.exec.warm_fraction", "sched.exec.estimate",
    "sched.exec.peek",  "sched.exec.slice",         "sched.exec.ckpt_resume"};

int RunTraced(const Args& args) {
  std::unique_ptr<Workload> workload =
      std::move(MakeWorkload(args.workload, args.seed)).ValueOrDie();
  Spans spans;
  std::vector<double> references = {ReferenceSeconds()};
  const Clock::time_point start = Clock::now();
  dana::Status st = workload->Setup(&spans);
  const double setup_raw_s = SecondsSince(start);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const Snapshot after_setup = Snapshot::Of(spans);
  Reps untraced, traced;
  st = RunReps(workload.get(), args, nullptr, args.seconds, kMinReps,
               /*check_golden=*/true, &untraced);
  const Snapshot before_reps = Snapshot::Of(spans);
  if (st.ok()) {
    st = RunReps(workload.get(), args, &spans, 0, kTracedReps,
                 /*check_golden=*/false, &traced);
  }
  const Snapshot after_reps = Snapshot::Of(spans);
  std::map<std::string, double> sim;
  if (st.ok()) {
    references.push_back(ReferenceSeconds());
    st = workload->Replay(&spans, &sim);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const Snapshot end = Snapshot::Of(spans);

  // Span times are reported at the reference speed of the whole run;
  // shares are ratios of raw times.
  references.insert(references.end(), untraced.reference_s.begin(),
                    untraced.reference_s.end());
  references.insert(references.end(), traced.reference_s.begin(),
                    traced.reference_s.end());
  const double speed = ReferenceSpeed(references);
  // Layers of the timed reps are reported per traced rep; the setup and
  // replayed layers as totals over the traced setup and the replay.
  const double n = static_cast<double>(traced.raw_s.size());
  auto raw_per_rep = [&](const std::string& layer) {
    return (Lookup(after_reps.seconds, layer) -
            Lookup(before_reps.seconds, layer)) / n;
  };
  auto per_rep_count = [&](const std::string& name) {
    return (Lookup(after_reps.counts, name) -
            Lookup(before_reps.counts, name)) / n;
  };
  auto outside_reps = [&](const std::string& layer) {
    return (Lookup(end.seconds, layer) - raw_per_rep(layer) * n) * speed;
  };

  using obs::Direction;
  std::vector<Metric> layers;  // the per-layer metrics of every workload
  auto add = [&](std::vector<Metric>* to, const std::string& name,
                 double value, const char* unit) {
    to->push_back({name, value, unit, Direction::kInfo, -1});
  };
  for (const char* layer : {"ml.generate", "ml.build_table", "hdfg.translate",
                            "compiler.lower", "compiler.compile"}) {
    add(&layers, std::string(layer) + "_s", outside_reps(layer), "s");
  }
  add(&layers, "compiler.tuple_ops", Lookup(end.counts, "compiler.tuple_ops"),
      "count");
  const double fetch = outside_reps("storage.fetch");
  const double walk = outside_reps("strider.walk");
  const double eval = outside_reps("engine.eval");
  const double children = fetch + walk + eval;
  const double train = outside_reps("accel.train");
  const double replay = outside_reps("accel.replay");
  add(&layers, "accel.train_s", train, "s");
  // Decode and batching glue: the replayed epoch loop minus its children,
  // timed in one pass so it is never negative.
  add(&layers, "accel.self_s", replay - children, "s");
  add(&layers, "engine.eval_s", eval, "s");
  add(&layers, "strider.walk_s", walk, "s");
  add(&layers, "storage.fetch_s", fetch, "s");
  add(&layers, "engine.ops", Lookup(end.counts, "engine.ops"), "count");
  for (const char* count : {"storage.hits", "storage.misses",
                            "storage.evictions", "storage.tier1_hits"}) {
    add(&layers, count, per_rep_count(count), "count");
  }
  // Each family's own layers are shares of a traced rep, so that on the
  // other family they read 0 of a fraction rather than 0 seconds.
  const double rep_raw_s = Mean(traced.raw_s);
  add(&layers, "runtime.dana_run_frac",
      raw_per_rep("runtime.dana_run") / rep_raw_s, "fraction");
  add(&layers, "runtime.madlib_run_frac",
      raw_per_rep("runtime.madlib_run") / rep_raw_s, "fraction");
  const double run = raw_per_rep("sched.run");
  double exec = raw_per_rep("sched.exec.measure");
  double exec_calls = 0;
  for (const char* layer : kExecLayers) {
    exec += raw_per_rep(layer);
    exec_calls += (Lookup(after_reps.calls, layer) -
                   Lookup(before_reps.calls, layer)) / n;
  }
  const double self = run - exec;
  auto share_of_run = [&](double seconds) {
    return run > 0 ? seconds / run : 0;
  };
  add(&layers, "sched.self_frac", share_of_run(self), "fraction");
  for (const char* layer : kExecLayers) {
    add(&layers, std::string(layer) + "_frac",
        share_of_run(raw_per_rep(layer)), "fraction");
  }
  add(&layers, "sched.exec.calls", exec_calls, "count");
  const double measure_raw = Lookup(after_setup.seconds, "sched.exec.measure");
  add(&layers, "sched.exec.measure_frac", measure_raw / setup_raw_s,
      "fraction");
  add(&layers, "sched.exec.endpoint_measurements",
      Lookup(after_setup.counts, "sched.exec.endpoint_measurements"),
      "count");
  // Each phase at its own reference speed, so host drift between the
  // untraced and the traced reps does not read as tracing cost.
  const double overhead =
      Median(traced.raw_s) * ReferenceSpeed(traced.reference_s) /
          (Median(untraced.raw_s) * ReferenceSpeed(untraced.reference_s)) -
      1;
  add(&layers, "trace.overhead_frac", overhead, "fraction");

  // The layers file adds absolute times of each family's own layers and the
  // simulated statistics, which a change to the host code must not move.
  std::vector<Metric> all = layers;
  for (const char* count : {"strider.pages", "strider.tuples"}) {
    add(&all, count, Lookup(end.counts, count), "count");
  }
  add(&all, "setup.traced_s", setup_raw_s * speed, "s");
  add(&all, "accel.replay_s", replay, "s");
  add(&all, "host.untraced_s", Median(untraced.raw_s) * speed, "s");
  add(&all, "host.traced_s", Median(traced.raw_s) * speed, "s");
  add(&all, "reference_s", Median(references), "s");
  add(&all, "runtime.dana_run_s", raw_per_rep("runtime.dana_run") * speed,
      "s");
  add(&all, "runtime.madlib_run_s", raw_per_rep("runtime.madlib_run") * speed,
      "s");
  add(&all, "sched.run_s", run * speed, "s");
  add(&all, "sched.self_s", self * speed, "s");
  for (const char* layer : kExecLayers) {
    add(&all, std::string(layer) + "_s", raw_per_rep(layer) * speed, "s");
  }
  add(&all, "sched.exec.measure_s", measure_raw * speed, "s");
  for (const auto& [name, value] : sim) {
    const bool bound = name.rfind("accel.bound_", 0) == 0;
    add(&all, name, value, bound ? "count" : "s");
  }
  for (const auto& [name, value] : traced.first.sim_layers) {
    const bool seconds = name.size() > 2 &&
                         name.compare(name.size() - 2, 2, "_s") == 0;
    add(&all, name, value, seconds ? "s" : "count");
  }

  // Self-consistency. Spans nest, so the executor calls cannot outlast the
  // Scheduler::Run span around them, nor the replayed per-page and
  // per-batch calls the replay loop around them. And the replay repeats a
  // subset of the work Accelerator::Train does over the same epochs, so its
  // children may exceed Train's time only by the host's run-to-run noise.
  bool consistent = true;
  if (exec > run) {
    std::fprintf(stderr, "sched.exec.* (%.6f s) exceeds sched.run (%.6f s)\n",
                 exec, run);
    consistent = false;
  }
  if (children > replay) {
    std::fprintf(stderr, "replayed calls (%.6f s) exceed their loop (%.6f s)\n",
                 children, replay);
    consistent = false;
  }
  if (children > train * (1 + kHostNoise)) {
    std::fprintf(stderr,
                 "replayed calls (%.6f s) exceed accel.train (%.6f s) by "
                 "more than %.0f%%\n",
                 children, train, kHostNoise * 100);
    consistent = false;
  }

  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  std::printf("bench_e2e %s (traced): seed %s, %zu untraced + %zu traced "
              "reps, %llu of %llu ops failed, %zu spans kept, %zu dropped\n",
              args.workload.c_str(), Hex(args.seed).c_str(),
              untraced.raw_s.size(), traced.raw_s.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              spans.kept_events(), spans.dropped_events());
  PrintMetrics(all);
  st = WriteStats("e2e_layers." + args.workload, args, all);
  const std::string trace_path =
      OutPath(args, "TRACE_e2e." + args.workload + ".json");
  if (st.ok()) st = spans.ChromeTrace().WriteFile(trace_path, 0);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", trace_path.c_str());
  const bool correct = failed == 0 && consistent;
  PrintResult(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --all: every workload in a child process of its own
// ---------------------------------------------------------------------------

int RunAll(const Args& args, const char* argv0) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  const std::string binary = len > 0 ? std::string(self, len) : argv0;
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.17g", args.seconds);
  TablePrinter summary({"workload", "exit", "verdict"});
  bool all_ok = true;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::string> child = {
        binary,  "--workload", name,    "--seed", std::to_string(args.seed),
        "--seconds", seconds,  "--trace", args.trace ? "1" : "0"};
    if (!args.out_dir.empty()) {
      child.push_back("--out-dir");
      child.push_back(args.out_dir);
    }
    if (args.write_golden) child.push_back("--write-golden");
    std::vector<char*> child_argv;
    for (std::string& a : child) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);

    std::printf("\n=== %s ===\n", name.c_str());
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv(binary.c_str(), child_argv.data());
      std::perror("execv");
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        std::perror("waitpid");
        return 1;
      }
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    all_ok = all_ok && code == 0;
    summary.AddRow({name, std::to_string(code), code == 0 ? "ok" : "FAILED"});
  }
  std::printf("\n");
  summary.Print();
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace dana::e2e

int main(int argc, char** argv) {
  using namespace dana::e2e;
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n%s", args.status().ToString().c_str(), kUsage);
    return 2;
  }
  if (args->all) return RunAll(*args, argv[0]);
  return args->trace ? RunTraced(*args) : RunEndToEnd(*args);
}
