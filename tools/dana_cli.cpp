// dana — command-line front end to the DAnA reproduction.
//
// Subcommands:
//   dana workloads
//       List the Table 3 workload suite with paper-vs-generated shapes.
//   dana compile --algo <linear|logistic|svm|lrmf> --dims D
//                [--rank K] [--merge M] [--save FILE]
//       Compile a UDF for a synthetic table of that shape, print the
//       utilization report, and optionally save the binary catalog blob.
//   dana inspect FILE
//       Load a catalog blob saved by `compile --save` and print its report
//       plus the disassembled Strider program.
//   dana strider-asm FILE
//       Assemble a Strider ISA text file; print the 22-bit words and the
//       round-tripped disassembly.
//   dana strider-walk --features N --rows N [--mysql]
//       Build a synthetic heap table, walk every page with the generated
//       Strider program, and report extraction statistics.
//   dana sched [options]
//       Generate a multi-query request stream (Zipfian or uniform) over the
//       Table 3 workloads and schedule it onto N simulated accelerator
//       slots; reports throughput and latency percentiles per policy.
//   dana --help
//       Detailed verb and option listing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table_printer.h"
#include "compiler/report.h"
#include "compiler/serialization.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "ml/workloads.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/systems.h"
#include "sched/executor.h"
#include "sched/scheduler.h"
#include "sched/workload_driver.h"
#include "strider/assembler.h"
#include "strider/codegen.h"
#include "strider/simulator.h"

using namespace dana;

namespace {

void PrintHelp(std::FILE* out) {
  std::fputs(
      "usage: dana <verb> [options]\n"
      "\n"
      "verbs:\n"
      "  workloads                 list the Table 3 workload suite\n"
      "  compile --algo <linear|logistic|svm|lrmf> --dims D\n"
      "          [--rank K] [--merge M] [--save FILE]\n"
      "                            compile a UDF and print the utilization\n"
      "                            report; optionally save the catalog blob\n"
      "  inspect FILE              print the report + disassembly of a blob\n"
      "                            saved by `compile --save`\n"
      "  strider-asm FILE          assemble a Strider ISA text file\n"
      "  strider-walk [--features N] [--rows N] [--mysql]\n"
      "                            walk a synthetic heap table with the\n"
      "                            generated Strider program\n"
      "  sched [--policy fcfs|sjf|rr|all] [--slots N] [--queries N]\n"
      "        [--rate QPS] [--dist zipf|uniform] [--theta S] [--seed N]\n"
      "        [--group public|sn|se|all] [--batch K] [--aging W]\n"
      "        [--affinity W] [--closed-loop] [--think-ms MS] [--sessions N]\n"
      "        [--interactive R] [--quantum E] [--ctx-ms MS] [--window-ms MS]\n"
      "        [--pool-frames F] [--eviction clock|lru|promotional]\n"
      "        [--os-frames F] [--metrics-json FILE] [--trace-out FILE]\n"
      "        [--metrics-table]\n"
      "                            schedule a multi-query request stream\n"
      "                            onto N simulated accelerator slots;\n"
      "                            --batch K coalesces up to K same-algorithm\n"
      "                            queries into one accelerator pass, --aging\n"
      "                            sets the SJF starvation bonus, --affinity\n"
      "                            turns on slot-affinity placement (dispatch\n"
      "                            to the slot whose pool is warm for the\n"
      "                            query's table; SJF then orders by the\n"
      "                            residency-aware estimate), --closed-loop\n"
      "                            drives think-time sessions instead of an\n"
      "                            open Poisson stream. Slots charge real\n"
      "                            cache residency measured from one shared\n"
      "                            physical pool per slot of --pool-frames\n"
      "                            scale-normalized frames (default 4096):\n"
      "                            a slot's first run of a table is cold,\n"
      "                            repeats warm until another table's sweep\n"
      "                            evicts the frames; the phys-warm column\n"
      "                            reports the mean measured residency at\n"
      "                            dispatch.\n"
      "                            Memory hierarchy: --eviction picks the\n"
      "                            pools' replacement policy (clock is the\n"
      "                            pinned legacy behaviour); --os-frames F\n"
      "                            adds a modeled OS page-cache tier of F\n"
      "                            frames below each slot pool (demoted\n"
      "                            pages re-read cheaper than disk; needs\n"
      "                            lru or promotional). The warm column\n"
      "                            then splits into pool/os shares.\n"
      "                            Priority classes & preemption: one\n"
      "                            event-driven engine runs every\n"
      "                            configuration; with --quantum and\n"
      "                            --window-ms at 0 each dispatch runs to\n"
      "                            completion. --interactive R tags the R\n"
      "                            hottest catalog ranks latency-sensitive\n"
      "                            (a class that jumps the batch queue only\n"
      "                            once a knob below is set); with\n"
      "                            --quantum E an interactive query waiting\n"
      "                            on a full machine preempts the longest\n"
      "                            batch run at its next E-epoch boundary\n"
      "                            (checkpointed model, resumed later),\n"
      "                            charging --ctx-ms per switch; --window-ms\n"
      "                            holds a freed slot to coalesce bigger\n"
      "                            batches before dispatching.\n"
      "                            Observability (single --policy only):\n"
      "                            --metrics-json FILE writes the run's\n"
      "                            metric-registry snapshot (bit-identical\n"
      "                            across identical runs), --trace-out FILE\n"
      "                            writes a Chrome trace_event slot timeline\n"
      "                            (chrome://tracing / Perfetto),\n"
      "                            --metrics-table prints the snapshot.\n"
      "  help | --help | -h        this message\n",
      out);
}

int Usage() {
  PrintHelp(stderr);
  return 2;
}

const char* Flag(int argc, char** argv, const char* name,
                 const char* fallback = nullptr) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Rejects `verb`'s arguments unless each is one of its flags and every
/// flag in `valued` is followed by a value (Flag() alone would silently
/// ignore a misspelled flag). Returns 0 when well formed; otherwise names
/// the offending flag on stderr and returns 2.
int CheckFlags(const char* verb, int argc, char** argv,
               std::initializer_list<std::string_view> valued,
               std::initializer_list<std::string_view> switches) {
  auto in = [](std::initializer_list<std::string_view> set,
               std::string_view arg) {
    return std::find(set.begin(), set.end(), arg) != set.end();
  };
  for (int i = 2; i < argc; ++i) {
    if (in(switches, argv[i])) continue;
    if (!in(valued, argv[i])) {
      std::fprintf(stderr, "dana %s: unknown flag '%s'\n", verb, argv[i]);
      return 2;
    }
    if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      std::fprintf(stderr, "dana %s: %s needs a value\n", verb, argv[i]);
      return 2;
    }
    ++i;
  }
  return 0;
}

int CmdWorkloads() {
  TablePrinter t({"id", "Workload", "Algorithm", "dims", "paper tuples",
                  "generated", "scale", "MADlib passes", "DAnA epochs"});
  for (const auto& w : ml::AllWorkloads()) {
    t.AddRow({w.id, w.display_name, ml::AlgoKindName(w.kind),
              std::to_string(w.params.dims), std::to_string(w.paper.tuples),
              std::to_string(w.tuples), TablePrinter::Fmt(w.scale, 1) + "x",
              std::to_string(w.assumed_epochs),
              std::to_string(w.dana_epochs)});
  }
  t.Print();
  return 0;
}

Result<ml::AlgoKind> ParseAlgo(const std::string& name) {
  if (name == "linear") return ml::AlgoKind::kLinearRegression;
  if (name == "logistic") return ml::AlgoKind::kLogisticRegression;
  if (name == "svm") return ml::AlgoKind::kSvm;
  if (name == "lrmf") return ml::AlgoKind::kLowRankMF;
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

int CmdCompile(int argc, char** argv) {
  const char* algo_name = Flag(argc, argv, "--algo");
  const char* dims_s = Flag(argc, argv, "--dims");
  if (algo_name == nullptr || dims_s == nullptr) return Usage();
  auto kind = ParseAlgo(algo_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }
  ml::AlgoParams params;
  params.dims = static_cast<uint32_t>(std::atoi(dims_s));
  params.rank = static_cast<uint32_t>(
      std::atoi(Flag(argc, argv, "--rank", "10")));
  params.merge_coef = static_cast<uint32_t>(
      std::atoi(Flag(argc, argv, "--merge", "16")));
  params.learning_rate =
      *kind == ml::AlgoKind::kLowRankMF ? 0.5 : 0.3;

  auto algo = ml::BuildAlgo(*kind, params);
  if (!algo.ok()) {
    std::fprintf(stderr, "%s\n", algo.status().ToString().c_str());
    return 1;
  }

  storage::PageLayout layout;
  compiler::WorkloadShape shape;
  shape.tuple_payload_bytes =
      4 * (params.dims + (*kind == ml::AlgoKind::kLowRankMF ? 0 : 1));
  shape.tuples_per_page = layout.TuplesPerPage(shape.tuple_payload_bytes);
  shape.num_tuples = 100000;
  shape.num_pages =
      (shape.num_tuples + shape.tuples_per_page - 1) / shape.tuples_per_page;

  compiler::UdfCompiler udf_compiler{runtime::DefaultFpga()};
  auto udf = udf_compiler.Compile(**algo, layout, shape);
  if (!udf.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 udf.status().ToString().c_str());
    return 1;
  }
  std::fputs(compiler::UtilizationReport(*udf).c_str(), stdout);

  if (const char* save = Flag(argc, argv, "--save")) {
    const std::string blob = compiler::SerializeUdf(*udf);
    std::ofstream out(save, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", save);
      return 1;
    }
    std::printf("\nsaved %zu-byte catalog blob to %s\n", blob.size(), save);
  }
  return 0;
}

int CmdInspect(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::ifstream in(argv[2], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto udf = compiler::DeserializeUdf(buf.str());
  if (!udf.ok()) {
    std::fprintf(stderr, "%s\n", udf.status().ToString().c_str());
    return 1;
  }
  std::fputs(compiler::UtilizationReport(*udf).c_str(), stdout);
  std::printf("\n--- Strider program ---\n%s",
              strider::Disassemble(udf->strider_program).c_str());
  return 0;
}

int CmdStriderAsm(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto prog = strider::Assemble(buf.str());
  if (!prog.ok()) {
    std::fprintf(stderr, "%s\n", prog.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu instructions (%llu bytes encoded)\n", prog->code.size(),
              static_cast<unsigned long long>(prog->EncodedBytes()));
  for (size_t i = 0; i < prog->code.size(); ++i) {
    std::printf("%3zu: 0x%06x  %s\n", i, prog->code[i].Encode(),
                prog->code[i].ToString().c_str());
  }
  return 0;
}

int CmdStriderWalk(int argc, char** argv) {
  if (int rc = CheckFlags("strider-walk", argc, argv,
                          {"--features", "--rows"}, {"--mysql"})) {
    return rc;
  }
  const uint32_t features = static_cast<uint32_t>(
      std::atoi(Flag(argc, argv, "--features", "54")));
  const uint32_t rows =
      static_cast<uint32_t>(std::atoi(Flag(argc, argv, "--rows", "10000")));
  const storage::PageLayout layout = HasFlag(argc, argv, "--mysql")
                                         ? storage::PageLayout::MySqlLike()
                                         : storage::PageLayout::Postgres();

  ml::DatasetSpec spec;
  spec.dims = features;
  spec.tuples = rows;
  auto data = ml::GenerateDataset(spec);
  auto table = ml::BuildTable("walk", data, layout);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto prog = strider::BuildPageWalkProgram(layout);
  if (!prog.ok()) {
    std::fprintf(stderr, "%s\n", prog.status().ToString().c_str());
    return 1;
  }
  strider::StriderSim sim;
  uint64_t tuples = 0, cycles = 0;
  for (uint64_t p = 0; p < (*table)->num_pages(); ++p) {
    auto run = sim.Run(*prog, {(*table)->PageData(p), layout.page_size});
    if (!run.ok()) {
      std::fprintf(stderr, "page %llu: %s\n",
                   static_cast<unsigned long long>(p),
                   run.status().ToString().c_str());
      return 1;
    }
    tuples += run->tuples.size();
    cycles += run->cycles;
  }
  std::printf("layout: %s (header %u B, tuple header %u B, %u KB pages)\n",
              HasFlag(argc, argv, "--mysql") ? "MySQL-like" : "PostgreSQL",
              layout.header_size, layout.tuple_header_size,
              layout.page_size / 1024);
  std::printf("walked %llu pages, extracted %llu/%u tuples in %llu cycles "
              "(%.1f cycles/tuple; %.2f ms at 150 MHz)\n",
              static_cast<unsigned long long>((*table)->num_pages()),
              static_cast<unsigned long long>(tuples), rows,
              static_cast<unsigned long long>(cycles),
              tuples ? static_cast<double>(cycles) / tuples : 0.0,
              SimTime::Cycles(cycles, 150e6).millis());
  return tuples == rows ? 0 : 1;
}

int CmdSched(int argc, char** argv) {
  if (int rc = CheckFlags(
          "sched", argc, argv,
          {"--policy", "--slots", "--queries", "--rate", "--dist", "--theta",
           "--seed", "--group", "--batch", "--aging", "--affinity",
           "--think-ms", "--sessions", "--interactive", "--quantum",
           "--ctx-ms", "--window-ms", "--pool-frames", "--eviction",
           "--os-frames", "--metrics-json", "--trace-out"},
          {"--closed-loop", "--metrics-table"})) {
    return rc;
  }
  // Workload catalog (popularity rank = catalog order).
  const std::string group = Flag(argc, argv, "--group", "public");
  std::vector<ml::Workload> workloads;
  if (group == "public") {
    workloads = ml::PublicWorkloads();
  } else if (group == "sn") {
    workloads = ml::SyntheticNominalWorkloads();
  } else if (group == "se") {
    workloads = ml::SyntheticExtensiveWorkloads();
  } else if (group == "all") {
    workloads = ml::AllWorkloads();
  } else {
    std::fprintf(stderr, "unknown --group '%s' (want public|sn|se|all)\n",
                 group.c_str());
    return 2;
  }
  std::vector<std::string> catalog;
  for (const auto& w : workloads) catalog.push_back(w.id);

  // Parse counts as signed so "--slots -1" is rejected instead of wrapping
  // to a ~4-billion value through the unsigned cast.
  const int queries = std::atoi(Flag(argc, argv, "--queries", "100"));
  const int slots = std::atoi(Flag(argc, argv, "--slots", "2"));
  if (slots <= 0 || queries <= 0) {
    std::fprintf(stderr, "--slots and --queries must be positive\n");
    return 2;
  }
  if (slots > 4096) {
    std::fprintf(stderr, "--slots must be at most 4096\n");
    return 2;
  }
  const int max_batch = std::atoi(Flag(argc, argv, "--batch", "1"));
  if (max_batch <= 0 || max_batch > 1024) {
    std::fprintf(stderr, "--batch must be in 1..1024\n");
    return 2;
  }
  const double aging = std::atof(Flag(argc, argv, "--aging", "0"));
  if (aging < 0) {
    std::fprintf(stderr, "--aging must be non-negative\n");
    return 2;
  }
  const double affinity = std::atof(Flag(argc, argv, "--affinity", "0"));
  if (affinity < 0) {
    std::fprintf(stderr, "--affinity must be non-negative\n");
    return 2;
  }
  const bool closed_loop = HasFlag(argc, argv, "--closed-loop");
  const double think_ms = std::atof(Flag(argc, argv, "--think-ms", "0"));
  const int sessions = std::atoi(Flag(argc, argv, "--sessions", "4"));
  if (closed_loop && (think_ms < 0 || sessions <= 0)) {
    std::fprintf(stderr, "--think-ms must be >= 0 and --sessions positive\n");
    return 2;
  }
  const int interactive_ranks =
      std::atoi(Flag(argc, argv, "--interactive", "0"));
  const int quantum = std::atoi(Flag(argc, argv, "--quantum", "0"));
  const double ctx_ms = std::atof(Flag(argc, argv, "--ctx-ms", "50"));
  const double window_ms = std::atof(Flag(argc, argv, "--window-ms", "0"));
  if (interactive_ranks < 0 || quantum < 0 || ctx_ms < 0 || window_ms < 0) {
    std::fprintf(stderr, "--interactive, --quantum, --ctx-ms and "
                         "--window-ms must be non-negative\n");
    return 2;
  }
  if (closed_loop && window_ms > 0) {
    // --quantum composes with --closed-loop (the engine materializes
    // think-time submissions at completion events); only the
    // batch-formation window remains open-stream.
    std::fprintf(stderr, "--window-ms is an open-stream feature; drop "
                         "--closed-loop\n");
    return 2;
  }
  // Shared physical residency pools: frames per slot pool, at least one
  // (a non-numeric argument parses to 0 and is rejected). Each slot's
  // pool eagerly allocates its frame table, so the ceiling must be a
  // count a process can actually hold (2^20 frames ~ 60 MB of frame
  // metadata per slot); resolution gains above the 4096 default are
  // already below 0.1% quantization.
  const long long pool_frames =
      std::atoll(Flag(argc, argv, "--pool-frames", "4096"));
  if (pool_frames < 1 || pool_frames > (1ll << 20)) {
    std::fprintf(stderr, "--pool-frames must be in 1..2^20\n");
    return 2;
  }
  // Tiered hierarchy: replacement policy of the slot pools and an optional
  // modeled OS page-cache tier below them. Clock is the pinned legacy
  // hierarchy and never runs an evicting OS tier.
  auto eviction =
      storage::ParseEvictionKind(Flag(argc, argv, "--eviction", "clock"));
  if (!eviction.ok()) {
    std::fprintf(stderr, "%s\n", eviction.status().ToString().c_str());
    return 2;
  }
  const long long os_frames =
      std::atoll(Flag(argc, argv, "--os-frames", "0"));
  if (os_frames < 0 || os_frames > (1ll << 20)) {
    std::fprintf(stderr, "--os-frames must be in 0..2^20\n");
    return 2;
  }
  if (os_frames > 0 && *eviction == storage::EvictionKind::kClock) {
    std::fprintf(stderr,
                 "--os-frames needs an evicting policy: choose --eviction "
                 "lru or promotional for the evicting OS tier\n");
    return 2;
  }

  sched::DriverOptions driver_opts;
  driver_opts.num_queries = static_cast<uint32_t>(queries);
  driver_opts.interactive_ranks = static_cast<uint32_t>(interactive_ranks);
  driver_opts.seed = static_cast<uint64_t>(
      std::atoll(Flag(argc, argv, "--seed", "3735928559")));
  driver_opts.zipf_exponent = std::atof(Flag(argc, argv, "--theta", "0.99"));
  if (driver_opts.zipf_exponent < 0) {
    std::fprintf(stderr, "--theta must be non-negative\n");
    return 2;
  }
  auto popularity = sched::ParsePopularity(Flag(argc, argv, "--dist", "zipf"));
  if (!popularity.ok()) {
    std::fprintf(stderr, "%s\n", popularity.status().ToString().c_str());
    return 2;
  }
  driver_opts.popularity = *popularity;

  std::vector<sched::Policy> policies;
  const std::string policy_name = Flag(argc, argv, "--policy", "all");
  if (policy_name == "all") {
    policies = {sched::Policy::kFcfs, sched::Policy::kSjf,
                sched::Policy::kRoundRobin};
  } else {
    auto policy = sched::ParsePolicy(policy_name);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
      return 2;
    }
    policies = {*policy};
  }

  // Observability sinks: --metrics-json writes the obs::MetricRegistry
  // snapshot (deterministic: two identical runs produce bit-identical
  // files), --trace-out writes a Chrome trace_event timeline
  // (chrome://tracing / Perfetto), --metrics-table prints the snapshot as
  // a table. All three snapshot ONE run, so they require a single
  // --policy.
  const char* metrics_json = Flag(argc, argv, "--metrics-json");
  const char* trace_out = Flag(argc, argv, "--trace-out");
  const bool metrics_table = HasFlag(argc, argv, "--metrics-table");
  const bool want_obs =
      metrics_json != nullptr || trace_out != nullptr || metrics_table;
  if (want_obs && policies.size() != 1) {
    std::fprintf(stderr,
                 "--metrics-json/--trace-out/--metrics-table snapshot one "
                 "run: pick a single --policy (fcfs|sjf|rr), not 'all'\n");
    return 2;
  }
  obs::MetricRegistry registry;
  obs::SlotTracer tracer;

  sched::DanaQueryExecutor::Options executor_opts;
  executor_opts.pool_frames = static_cast<uint64_t>(pool_frames);
  executor_opts.eviction = *eviction;
  executor_opts.os_frames = static_cast<uint64_t>(os_frames);
  executor_opts.metrics = want_obs ? &registry : nullptr;
  sched::DanaQueryExecutor executor(executor_opts);
  driver_opts.sessions = static_cast<uint32_t>(sessions);

  // Arrival rate (open stream only): explicit --rate, else calibrated to
  // ~80% utilization of the requested slots against the zipf-weighted mean
  // service time.
  const char* rate_flag = Flag(argc, argv, "--rate");
  if (rate_flag != nullptr) {
    driver_opts.arrival_rate_qps = std::atof(rate_flag);
    if (driver_opts.arrival_rate_qps <= 0) {
      std::fprintf(stderr, "--rate must be positive\n");
      return 2;
    }
  } else if (!closed_loop) {
    // Calibrate against each workload's steady state, not its cold
    // first-touch: dispatch every catalog entry twice back to back on one
    // slot and weight the second sample — immediately after its own run
    // the table is exactly as resident as the pool allows, which for
    // pool-sized tables is the warmest repeat they can ever achieve.
    double weighted = 0, total_weight = 0;
    for (size_t rank = 0; rank < catalog.size(); ++rank) {
      sched::SliceCost repeat;
      for (int run = 0; run < 2; ++run) {
        auto exec = executor.Begin(sched::QueryBatch::Single(catalog[rank]));
        Result<sched::SliceCost> slice =
            exec.ok() ? (*exec)->NextSlice(0) : exec.status();
        if (!slice.ok()) {
          std::fprintf(stderr, "%s\n", slice.status().ToString().c_str());
          return 1;
        }
        repeat = *slice;
      }
      const double w = sched::PopularityWeight(
          driver_opts.popularity, rank, driver_opts.zipf_exponent);
      weighted += w * repeat.service.seconds();
      total_weight += w;
    }
    driver_opts.arrival_rate_qps =
        0.8 * static_cast<double>(slots) * total_weight / weighted;
  }

  sched::WorkloadDriver driver(catalog, driver_opts);
  std::vector<sched::QueryRequest> stream;
  std::vector<std::vector<std::string>> session_scripts;
  if (closed_loop) {
    auto scripts = driver.GenerateSessions();
    if (!scripts.ok()) {
      std::fprintf(stderr, "%s\n", scripts.status().ToString().c_str());
      return 1;
    }
    session_scripts = std::move(*scripts);
    std::printf("%u queries over %zu '%s' workloads, %s popularity "
                "(theta %.2f), closed loop: %d session(s), think %.0f ms, "
                "%d slot(s), batch %d, seed %llu\n\n",
                driver_opts.num_queries, catalog.size(), group.c_str(),
                sched::PopularityName(driver_opts.popularity),
                driver_opts.zipf_exponent, sessions, think_ms, slots,
                max_batch,
                static_cast<unsigned long long>(driver_opts.seed));
  } else {
    auto generated = driver.Generate();
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    stream = std::move(*generated);
    std::printf("%u queries over %zu '%s' workloads, %s popularity "
                "(theta %.2f), %.3f qps, %d slot(s), batch %d, seed %llu\n\n",
                driver_opts.num_queries, catalog.size(), group.c_str(),
                sched::PopularityName(driver_opts.popularity),
                driver_opts.zipf_exponent, driver_opts.arrival_rate_qps,
                slots, max_batch,
                static_cast<unsigned long long>(driver_opts.seed));
  }

  // Executors without a residency model report NaN warm-hit rates (their
  // static warm fractions say nothing about placement).
  auto warm_hits_cell = [](double rate) {
    return std::isnan(rate) ? std::string("-")
                            : TablePrinter::Fmt(rate * 100.0, 0) + "%";
  };
  auto warm_frac_cell = [](double fraction) {
    return std::isnan(fraction) ? std::string("-")
                                : TablePrinter::Fmt(fraction, 2);
  };
  const bool preemptive = quantum > 0 || window_ms > 0;
  // The mean warm fraction is *measured* per-slot pool residency at
  // dispatch ("phys warm"). With an OS tier the column splits into the
  // pool share and the os-tier share (exclusive tiers).
  const bool tiered = os_frames > 0;
  const char* warm_column = tiered ? "pool/os warm" : "phys warm";
  std::vector<std::string> columns = {
      "policy", "throughput (q/h)", "mean lat", "p50", "p95", "p99",
      "mean wait", "makespan", "mean batch", "warm hits", warm_column,
      "shared/private", "compile hits"};
  if (preemptive) {
    columns.insert(columns.begin() + 6, {"int p95", "batch p95", "preempts"});
  }
  TablePrinter table(columns);
  // The rate-calibration dispatches above already counted into the
  // registry; drop them so the snapshot covers exactly the scheduled run.
  registry.Clear();
  for (sched::Policy policy : policies) {
    // Every policy starts from the same cold machine: no slot inherits
    // residency from the previous policy's run (or the calibration pass).
    executor.ResetResidency();
    sched::Scheduler scheduler(
        {.slots = static_cast<uint32_t>(slots),
         .policy = policy,
         .max_batch = static_cast<uint32_t>(max_batch),
         .sjf_aging_weight = aging,
         .affinity_weight = affinity,
         .preemption_quantum_epochs = static_cast<uint32_t>(quantum),
         .context_switch_cost = dana::SimTime::Millis(ctx_ms),
         .batch_window = dana::SimTime::Millis(window_ms),
         .metrics = want_obs ? &registry : nullptr,
         .tracer = trace_out != nullptr ? &tracer : nullptr},
        &executor);
    auto report =
        closed_loop
            ? scheduler.RunClosedLoop(session_scripts,
                                      dana::SimTime::Millis(think_ms))
            : scheduler.Run(stream);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", sched::PolicyName(policy),
                   report.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row = {
        sched::PolicyName(policy),
        TablePrinter::Fmt(report->ThroughputQps() * 3600.0, 1),
        report->MeanLatency().ToString(),
        report->LatencyPercentile(50).ToString(),
        report->LatencyPercentile(95).ToString(),
        report->LatencyPercentile(99).ToString(),
        report->MeanWait().ToString(),
        report->makespan.ToString(),
        TablePrinter::Fmt(report->MeanBatchSize(), 2),
        warm_hits_cell(report->WarmHitRate()),
        tiered ? warm_frac_cell(report->MeanWarmFraction()) + "/" +
                     warm_frac_cell(report->MeanOsWarmFraction())
               : warm_frac_cell(report->MeanWarmFraction()),
        report->shared_service.ToString() + "/" +
            report->private_service.ToString(),
        std::to_string(report->compile_hits) + "/" +
            std::to_string(report->compile_hits + report->compile_misses)};
    if (preemptive) {
      const auto kInt = sched::QueryClass::kInteractive;
      const auto kBatch = sched::QueryClass::kBatch;
      row.insert(
          row.begin() + 6,
          {report->ClassQueries(kInt)
               ? report->ClassLatencyPercentile(kInt, 95).ToString()
               : "-",
           report->ClassQueries(kBatch)
               ? report->ClassLatencyPercentile(kBatch, 95).ToString()
               : "-",
           std::to_string(report->preemptions) + " (" +
               report->preemption_overhead.ToString() + ")"});
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\ncompiler ran %llu time(s); compile cache served %llu "
              "repeat(s)\n",
              static_cast<unsigned long long>(
                  executor.compile_cache().misses()),
              static_cast<unsigned long long>(executor.compile_cache().hits()));
  if (want_obs) {
    // Snapshot the executor's caches (compile cache + slot pools) next to
    // the run's sched.* metrics before serializing.
    executor.PublishGauges(&registry);
  }
  if (metrics_table) {
    std::printf("\n");
    registry.ToTable().Print();
  }
  if (metrics_json != nullptr) {
    Status st = registry.ToJson().WriteFile(metrics_json);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_json);
  }
  if (trace_out != nullptr) {
    Status st = tracer.WriteFile(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events; load in chrome://tracing "
                "or https://ui.perfetto.dev)\n",
                trace_out, tracer.event_count());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    PrintHelp(stdout);
    return 0;
  }
  if (cmd == "workloads") return CmdWorkloads();
  if (cmd == "compile") return CmdCompile(argc, argv);
  if (cmd == "inspect") return CmdInspect(argc, argv);
  if (cmd == "strider-asm") return CmdStriderAsm(argc, argv);
  if (cmd == "strider-walk") return CmdStriderWalk(argc, argv);
  if (cmd == "sched") return CmdSched(argc, argv);
  std::fprintf(stderr, "dana: unknown verb '%s'\n\n", cmd.c_str());
  return Usage();
}
