// Golden scheduler corpus (ctest label: sched_corpus).
//
// Every file under tests/golden/sched_corpus/ is one scenario stored as
// data: its scheduler options, its executor (a stub catalog spelled out
// entry by entry, or the real DanaQueryExecutor with its eviction policy
// and OS-tier size), its request stream (open arrivals or closed-loop
// session scripts), and the outcome the scheduler produced for it —
// per-query dispatch order, slot, start and completion nanos, plus the
// sched.* metric snapshot (MetricRegistry::ToJson). The replay test runs
// each file's inputs through the scheduler, renders the same document, and
// requires it to match the file byte for byte. A tie-break drift that
// aggregate goldens would round away fails here, on the line that moved.
//
// The matrix covers policy {fcfs, sjf, rr} x mode {run-to-completion,
// preemptive quantum, batch window} x slots {1, 4, 8} x {open, closed
// loop} (closed loop x window is rejected by design), aged and affinity
// SJF across the same grid, deep-queue cells at 2 and 3 slots, and real
// DanaQueryExecutor runs over physical per-slot pools (clock, and lru with
// an OS tier), whose slice memoization the outcome pins.
//
// Regenerate with `sched_corpus_test --write-golden [dir]` only for an
// intentional schedule change, and review the diff line by line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "storage/eviction_policy.h"
#include "support/synthetic_executor.h"

namespace dana::sched {
namespace {

using obs::Json;

// ---------------------------------------------------------------------------
// Document rendering and replay
// ---------------------------------------------------------------------------

/// Renders a corpus document. Objects expand three levels deep (so every
/// scenario knob and every metric sits on its own line), top-level arrays
/// put one element per line, and anything deeper stays compact — a
/// regenerated corpus then diffs as per-query and per-metric line changes.
void RenderTo(const Json& v, int depth, std::string* out) {
  const std::string pad(2 * (depth + 1), ' ');
  const std::string close(2 * depth, ' ');
  if (v.is_object() && depth < 3 && v.size() > 0) {
    *out += "{\n";
    const auto& members = v.members();
    for (size_t i = 0; i < members.size(); ++i) {
      *out += pad + Json(members[i].first).Dump() + ": ";
      RenderTo(members[i].second, depth + 1, out);
      *out += i + 1 < members.size() ? ",\n" : "\n";
    }
    *out += close + "}";
  } else if (v.is_array() && depth == 1 && v.size() > 0) {
    *out += "[\n";
    const auto& items = v.items();
    for (size_t i = 0; i < items.size(); ++i) {
      *out += pad + items[i].Dump();
      *out += i + 1 < items.size() ? ",\n" : "\n";
    }
    *out += close + "]";
  } else {
    *out += v.Dump();
  }
}

std::string Render(const Json& doc) {
  std::string out;
  RenderTo(doc, 0, &out);
  out += "\n";
  return out;
}

const Json& Member(const Json& obj, const std::string& key) {
  static const Json kNull;
  const Json* v = obj.Find(key);
  return v != nullptr ? *v : kNull;
}

double Num(const Json& obj, const std::string& key) {
  return Member(obj, key).AsNumber();
}

const std::string& Str(const Json& obj, const std::string& key) {
  return Member(obj, key).AsString();
}

QueryClass ParseClass(const std::string& name) {
  return name == "interactive" ? QueryClass::kInteractive : QueryClass::kBatch;
}

Result<SchedulerOptions> OptionsFrom(const Json& scenario) {
  SchedulerOptions opts;
  DANA_ASSIGN_OR_RETURN(opts.policy, ParsePolicy(Str(scenario, "policy")));
  opts.slots = static_cast<uint32_t>(Num(scenario, "slots"));
  opts.max_batch = static_cast<uint32_t>(Num(scenario, "max_batch"));
  opts.sjf_aging_weight = Num(scenario, "sjf_aging_weight");
  opts.affinity_weight = Num(scenario, "affinity_weight");
  opts.preemption_quantum_epochs =
      static_cast<uint32_t>(Num(scenario, "preemption_quantum_epochs"));
  opts.context_switch_cost =
      dana::SimTime::Nanos(Num(scenario, "context_switch_ns"));
  opts.batch_window = dana::SimTime::Nanos(Num(scenario, "batch_window_ns"));
  return opts;
}

/// Runs `inputs` (a corpus document without its outcome) and returns the
/// full document: the inputs followed by "queries" and "metrics".
Result<Json> Replay(const Json& inputs) {
  const Json& scenario = Member(inputs, "scenario");
  DANA_ASSIGN_OR_RETURN(SchedulerOptions opts, OptionsFrom(scenario));
  obs::MetricRegistry registry;
  opts.metrics = &registry;

  std::unique_ptr<QueryExecutor> executor;
  if (Str(scenario, "executor") == "dana") {
    DanaQueryExecutor::Options eopts;
    DANA_ASSIGN_OR_RETURN(eopts.eviction,
                          storage::ParseEvictionKind(Str(scenario, "eviction")));
    eopts.os_frames = static_cast<uint64_t>(Num(scenario, "os_frames"));
    executor = std::make_unique<DanaQueryExecutor>(eopts);
  } else {
    auto stub = std::make_unique<SyntheticExecutor>();
    for (const Json& e : Member(inputs, "catalog").items()) {
      stub->Set(Str(e, "id"),
                {.epochs = static_cast<uint32_t>(Num(e, "epochs")),
                 .shared_s = Num(e, "shared_s"),
                 .per_query_s = Num(e, "per_query_s"),
                 .estimate_s = Num(e, "estimate_s"),
                 .compile_s = Num(e, "compile_s")});
    }
    for (const Json& w : Member(inputs, "warmth").items()) {
      stub->SetWarm(Str(w, "id"), static_cast<uint32_t>(Num(w, "slot")),
                    Num(w, "fraction"));
    }
    executor = std::move(stub);
  }

  Scheduler scheduler(opts, executor.get());
  Result<ScheduleReport> report = Status::InvalidArgument("no stream");
  if (Str(scenario, "loop") == "closed") {
    std::vector<std::vector<std::string>> scripts;
    std::vector<QueryClass> classes;
    for (const Json& s : Member(inputs, "sessions").items()) {
      classes.push_back(ParseClass(Str(s, "class")));
      scripts.emplace_back();
      for (const Json& id : Member(s, "script").items()) {
        scripts.back().push_back(id.AsString());
      }
    }
    report = scheduler.RunClosedLoop(
        scripts, dana::SimTime::Nanos(Num(scenario, "think_ns")), classes);
  } else {
    std::vector<QueryRequest> requests;
    for (const Json& r : Member(inputs, "requests").items()) {
      QueryRequest req;
      req.id = static_cast<uint64_t>(r.at(0).AsNumber());
      req.workload_id = r.at(1).AsString();
      req.arrival = dana::SimTime::Nanos(r.at(2).AsNumber());
      req.query_class = ParseClass(r.at(3).AsString());
      requests.push_back(std::move(req));
    }
    report = scheduler.Run(std::move(requests));
  }
  if (!report.ok()) return report.status();

  Json doc = Json::Object();
  for (const auto& [key, value] : inputs.members()) {
    if (key != "queries" && key != "metrics") doc.Set(key, value);
  }
  Json queries = Json::Array();
  for (const QueryStat& q : report->queries) {
    Json row = Json::Array();
    row.Append(q.id);
    row.Append(static_cast<uint64_t>(q.slot));
    row.Append(q.start.nanos());
    row.Append(q.completion.nanos());
    queries.Append(std::move(row));
  }
  doc.Set("queries", std::move(queries));
  doc.Set("metrics", registry.ToJson());
  return doc;
}

// ---------------------------------------------------------------------------
// The scenario matrix (the inputs --write-golden records)
// ---------------------------------------------------------------------------

struct Knobs {
  uint32_t max_batch = 1;
  double aging = 0.0;
  double affinity = 0.0;
  uint32_t quantum = 0;
  double ctx_ms = 0.0;
  double window_s = 0.0;
};

struct StreamSpec {
  uint64_t seed = 0;
  uint32_t queries = 0;
  double rate_qps = 0.0;
  double zipf = 1.1;
  uint32_t interactive_ranks = 0;
  uint32_t sessions = 0;  ///< > 0 selects the closed loop
  double think_s = 0.0;
};

const std::vector<std::string> kStubCatalog = {"lookup", "score", "logit",
                                               "svm",    "train", "lrmf"};
const std::vector<std::string> kDanaCatalog = {"wlan", "sn_lrmf", "sn_linear"};

Json StubCatalog() {
  struct Row {
    const char* id;
    uint32_t epochs;
    double shared_s, per_query_s, estimate_s, compile_s;
  };
  const Row rows[] = {{"lookup", 1, 1.5, 0.5, 2.0, 0.2},
                      {"score", 2, 1.0, 0.5, 3.0, 0.2},
                      {"logit", 4, 1.5, 0.5, 7.0, 0.5},
                      {"svm", 6, 1.5, 1.0, 11.0, 0.5},
                      {"train", 12, 2.0, 1.0, 26.0, 1.0},
                      {"lrmf", 20, 2.5, 1.0, 55.0, 1.0}};
  Json catalog = Json::Array();
  for (const Row& r : rows) {
    Json e = Json::Object();
    e.Set("id", r.id);
    e.Set("epochs", static_cast<uint64_t>(r.epochs));
    e.Set("shared_s", r.shared_s);
    e.Set("per_query_s", r.per_query_s);
    e.Set("estimate_s", r.estimate_s);
    e.Set("compile_s", r.compile_s);
    catalog.Append(std::move(e));
  }
  return catalog;
}

Json StubWarmth() {
  Json warmth = Json::Array();
  auto pin = [&](const char* id, uint32_t slot, double fraction) {
    Json w = Json::Object();
    w.Set("id", id);
    w.Set("slot", static_cast<uint64_t>(slot));
    w.Set("fraction", fraction);
    warmth.Append(std::move(w));
  };
  pin("logit", 1, 0.8);
  pin("train", 0, 0.6);
  return warmth;
}

Json MakeInputs(const std::string& name, const std::string& executor,
                Policy policy, uint32_t slots, const Knobs& k,
                const StreamSpec& s,
                storage::EvictionKind eviction = storage::EvictionKind::kClock,
                uint64_t os_frames = 0) {
  const bool stub = executor == "stub";
  const std::vector<std::string>& catalog = stub ? kStubCatalog : kDanaCatalog;
  Json scenario = Json::Object();
  scenario.Set("name", name);
  scenario.Set("executor", executor);
  if (!stub) {
    scenario.Set("eviction", storage::EvictionKindName(eviction));
    scenario.Set("os_frames", os_frames);
  }
  scenario.Set("policy", PolicyName(policy));
  scenario.Set("slots", static_cast<uint64_t>(slots));
  scenario.Set("max_batch", static_cast<uint64_t>(k.max_batch));
  scenario.Set("sjf_aging_weight", k.aging);
  scenario.Set("affinity_weight", k.affinity);
  scenario.Set("preemption_quantum_epochs", static_cast<uint64_t>(k.quantum));
  scenario.Set("context_switch_ns", dana::SimTime::Millis(k.ctx_ms).nanos());
  scenario.Set("batch_window_ns", dana::SimTime::Seconds(k.window_s).nanos());
  scenario.Set("loop", s.sessions > 0 ? "closed" : "open");
  if (s.sessions > 0) {
    scenario.Set("think_ns", dana::SimTime::Seconds(s.think_s).nanos());
  }

  Json doc = Json::Object();
  doc.Set("scenario", std::move(scenario));
  if (stub) {
    doc.Set("catalog", StubCatalog());
    doc.Set("warmth", StubWarmth());
  }

  DriverOptions dopts;
  dopts.seed = s.seed;
  dopts.num_queries = s.queries;
  dopts.arrival_rate_qps = s.rate_qps;
  dopts.popularity = Popularity::kZipfian;
  dopts.zipf_exponent = s.zipf;
  dopts.interactive_ranks = s.interactive_ranks;
  if (s.sessions > 0) dopts.sessions = s.sessions;
  WorkloadDriver driver(catalog, dopts);
  if (s.sessions > 0) {
    auto scripts = driver.GenerateSessions();
    EXPECT_TRUE(scripts.ok()) << name;
    Json sessions = Json::Array();
    for (size_t i = 0; scripts.ok() && i < scripts->size(); ++i) {
      Json session = Json::Object();
      // Every third session is an interactive analyst.
      session.Set("class", i % 3 == 0 ? "interactive" : "batch");
      Json script = Json::Array();
      for (const std::string& id : (*scripts)[i]) script.Append(id);
      session.Set("script", std::move(script));
      sessions.Append(std::move(session));
    }
    doc.Set("sessions", std::move(sessions));
  } else {
    auto stream = driver.Generate();
    EXPECT_TRUE(stream.ok()) << name;
    Json requests = Json::Array();
    for (size_t i = 0; stream.ok() && i < stream->size(); ++i) {
      const QueryRequest& r = (*stream)[i];
      Json row = Json::Array();
      row.Append(r.id);
      row.Append(r.workload_id);
      row.Append(r.arrival.nanos());
      row.Append(QueryClassName(r.query_class));
      requests.Append(std::move(row));
    }
    doc.Set("requests", std::move(requests));
  }
  return doc;
}

std::vector<Json> BuildMatrix() {
  std::vector<Json> out;
  const Policy policies[] = {Policy::kFcfs, Policy::kSjf, Policy::kRoundRobin};
  struct Mode {
    const char* name;
    Knobs knobs;
    uint64_t seed;
  };
  const Mode modes[] = {
      {"rtc", {.max_batch = 3}, 0xC0FFEE},
      {"preempt", {.max_batch = 3, .quantum = 3, .ctx_ms = 250}, 0x5EED},
      {"window",
       {.max_batch = 4, .quantum = 4, .ctx_ms = 100, .window_s = 3},
       0xF00D},
  };
  struct Variant {
    const char* suffix;
    double aging, affinity;
  };
  const Variant plain{"", 0.0, 0.0};
  const Variant sjf_variants[] = {{"_aged", 0.2, 0.0},
                                  {"_affinity", 0.0, 0.5}};

  auto add_cell = [&](Policy policy, const Variant& v, const Mode& mode,
                      uint32_t slots, bool closed) {
    Knobs k = mode.knobs;
    k.aging = v.aging;
    k.affinity = v.affinity;
    StreamSpec s;
    s.seed = mode.seed;
    if (closed) {
      s.queries = 40;
      s.sessions = 2 * slots;
      s.think_s = 0.5;
    } else {
      // Roughly 2x the machine's capacity: deep queues at every width.
      s.queries = 60;
      s.rate_qps = 0.25 * slots;
      s.interactive_ranks = 2;
    }
    const std::string name = std::string(PolicyName(policy)) + v.suffix +
                             "_" + mode.name + "_x" + std::to_string(slots) +
                             (closed ? "_closed" : "_open");
    out.push_back(MakeInputs(name, "stub", policy, slots, k, s));
  };
  for (const Mode& mode : modes) {
    for (uint32_t slots : {1u, 4u, 8u}) {
      for (bool closed : {false, true}) {
        // A formation hold defers the completions closed-loop sessions
        // submit from: RunClosedLoop rejects the window by design.
        if (closed && mode.knobs.window_s > 0) continue;
        for (Policy policy : policies) add_cell(policy, plain, mode, slots, closed);
        for (const Variant& v : sjf_variants) {
          add_cell(Policy::kSjf, v, mode, slots, closed);
        }
      }
    }
  }

  // Deep-queue cells: 2-3 slots under heavy overload, where batch
  // coalescing pulls from the middle of long queues and affinity re-scores
  // slots on every pick.
  const StreamSpec deep_rtc{.seed = 0xC0FFEE, .queries = 60, .rate_qps = 0.25};
  const StreamSpec deep_mixed{
      .seed = 0xBEEF, .queries = 48, .rate_qps = 0.3};
  const StreamSpec deep_preempt{
      .seed = 0x5EED, .queries = 48, .rate_qps = 0.3, .interactive_ranks = 2};
  const StreamSpec deep_window{
      .seed = 0xF00D, .queries = 40, .rate_qps = 0.35, .interactive_ranks = 2};
  for (Policy policy : policies) {
    const std::string p = PolicyName(policy);
    out.push_back(MakeInputs(p + "_deep_rtc_x2_open", "stub", policy, 2,
                             {.max_batch = 3}, deep_rtc));
    out.push_back(MakeInputs(
        p + "_deep_affinity_preempt_x2_open", "stub", policy, 2,
        {.max_batch = 3, .affinity = 0.5, .quantum = 3, .ctx_ms = 250},
        deep_preempt));
  }
  out.push_back(MakeInputs("sjf_deep_aged_affinity_rtc_x3_open", "stub",
                           Policy::kSjf, 3,
                           {.max_batch = 2, .aging = 0.2, .affinity = 0.5},
                           deep_mixed));
  out.push_back(MakeInputs("fcfs_deep_affinity_rtc_x3_open", "stub",
                           Policy::kFcfs, 3, {.max_batch = 4, .affinity = 0.5},
                           deep_mixed));
  out.push_back(MakeInputs("fcfs_deep_affinity_window_x2_open", "stub",
                           Policy::kFcfs, 2,
                           {.max_batch = 4,
                            .affinity = 0.5,
                            .quantum = 4,
                            .ctx_ms = 100,
                            .window_s = 3},
                           deep_window));

  // Real executor over physical per-slot pools. The preemptive cells run
  // repeat slices on undisturbed slots, which slice memoization skips; the
  // outcome pins that the skip never changes a priced cost.
  const StreamSpec dana_preempt{.seed = 0xDA7A,
                                .queries = 14,
                                .rate_qps = 0.02,
                                .zipf = 1.2,
                                .interactive_ranks = 1};
  const StreamSpec dana_rtc{
      .seed = 0xDA7A, .queries = 12, .rate_qps = 0.03, .zipf = 1.2};
  const StreamSpec dana_closed{
      .seed = 0xDA7A, .queries = 9, .zipf = 1.2, .sessions = 3, .think_s = 1};
  const Knobs sjf_affinity_preempt{
      .max_batch = 2, .affinity = 0.5, .quantum = 2, .ctx_ms = 50};
  const Knobs sjf_affinity_rtc{.max_batch = 2, .affinity = 0.5};
  using storage::EvictionKind;
  out.push_back(MakeInputs("dana_clock_sjf_affinity_preempt_x2_open", "dana",
                           Policy::kSjf, 2, sjf_affinity_preempt,
                           dana_preempt));
  out.push_back(MakeInputs("dana_lru_os_sjf_affinity_preempt_x2_open", "dana",
                           Policy::kSjf, 2, sjf_affinity_preempt, dana_preempt,
                           EvictionKind::kLru, 4096));
  out.push_back(MakeInputs("dana_clock_sjf_affinity_rtc_x2_open", "dana",
                           Policy::kSjf, 2, sjf_affinity_rtc, dana_rtc));
  out.push_back(MakeInputs("dana_lru_os_sjf_affinity_rtc_x2_open", "dana",
                           Policy::kSjf, 2, sjf_affinity_rtc, dana_rtc,
                           EvictionKind::kLru, 4096));
  out.push_back(MakeInputs("dana_clock_fcfs_rtc_x2_closed", "dana",
                           Policy::kFcfs, 2, {.max_batch = 2}, dana_closed));
  return out;
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

std::string CorpusDir() { return DANA_SCHED_CORPUS_DIR; }

std::vector<std::string> CorpusNames() {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(CorpusDir(), ec)) {
    if (entry.path().extension() == ".json") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Byte-for-byte comparison that reports the first differing line instead
/// of dumping two multi-kilobyte strings.
void ExpectSameText(const std::string& golden, const std::string& replay,
                    const std::string& what) {
  if (golden == replay) return;
  std::istringstream a(golden), b(replay);
  std::string la, lb;
  for (size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    if (!more_a || !more_b || la != lb) {
      ADD_FAILURE() << what << ": first difference at line " << line
                    << "\n  golden: " << (more_a ? la : "<eof>")
                    << "\n  replay: " << (more_b ? lb : "<eof>");
      return;
    }
  }
  ADD_FAILURE() << what << ": texts differ (line endings or trailing bytes)";
}

class SchedCorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedCorpusTest, ReplaysByteForByte) {
  const std::string path = CorpusDir() + "/" + GetParam() + ".json";
  const std::string golden = ReadText(path);
  auto doc = Json::Parse(golden);
  ASSERT_TRUE(doc.ok()) << path << ": " << doc.status().ToString();
  auto replay = Replay(*doc);
  ASSERT_TRUE(replay.ok()) << path << ": " << replay.status().ToString();
  ExpectSameText(golden, Render(*replay), path);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SchedCorpusTest, ::testing::ValuesIn(CorpusNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(SchedCorpusTest);

TEST(SchedCorpusCoverageTest, EveryMatrixScenarioHasAFile) {
  std::vector<std::string> matrix;
  for (const Json& inputs : BuildMatrix()) {
    matrix.push_back(Str(Member(inputs, "scenario"), "name"));
  }
  std::sort(matrix.begin(), matrix.end());
  EXPECT_EQ(std::adjacent_find(matrix.begin(), matrix.end()), matrix.end())
      << "duplicate scenario names";
  EXPECT_EQ(CorpusNames(), matrix)
      << "the corpus directory and the matrix disagree; regenerate with "
         "--write-golden";
}

TEST(SchedCorpusCoverageTest, RecordedInputsMatchTheMatrix) {
  // The files are data, but their inputs must still be what the matrix
  // generates: a hand-edited stream or knob would silently retarget a pin.
  for (const Json& inputs : BuildMatrix()) {
    const std::string name = Str(Member(inputs, "scenario"), "name");
    auto doc = Json::Parse(ReadText(CorpusDir() + "/" + name + ".json"));
    if (!doc.ok()) continue;  // EveryMatrixScenarioHasAFile reports it
    for (const auto& [key, value] : inputs.members()) {
      EXPECT_EQ(Member(*doc, key).Dump(), value.Dump()) << name << "/" << key;
    }
  }
}

TEST(SchedCorpusCoverageTest, UnpreemptedRunsPublishOneSlicePerBatch) {
  // sched.slices is published on every run; with the quantum and the
  // window at zero nothing preempts, so each batch is exactly one slice.
  size_t checked = 0;
  for (const std::string& name : CorpusNames()) {
    auto doc = Json::Parse(ReadText(CorpusDir() + "/" + name + ".json"));
    ASSERT_TRUE(doc.ok()) << name;
    const Json& scenario = Member(*doc, "scenario");
    if (Num(scenario, "preemption_quantum_epochs") != 0 ||
        Num(scenario, "batch_window_ns") != 0) {
      continue;
    }
    const Json& counters = Member(Member(*doc, "metrics"), "counters");
    EXPECT_EQ(Num(counters, "sched.slices"), Num(counters, "sched.batches"))
        << name;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

int WriteGolden(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const Json& inputs : BuildMatrix()) {
    const std::string name = Str(Member(inputs, "scenario"), "name");
    auto doc = Replay(inputs);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    const std::string path = dir + "/" + name + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << Render(*doc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dana::sched

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--write-golden") {
      return dana::sched::WriteGolden(
          i + 1 < argc ? argv[i + 1] : dana::sched::CorpusDir());
    }
  }
  return RUN_ALL_TESTS();
}
