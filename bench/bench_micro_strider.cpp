// Strider microbenchmark: host throughput of the cycle-level Strider
// interpreter walking heap pages, plus ISA encode/decode and assembly (the
// simulator's own speed, not simulated time).
//
// The gated scoreboard is pages_per_s.{postgres,mysql}: the generated
// page-walk program over a seeded 4096-tuple, 54-feature table in the
// PostgreSQL layout (32 KB pages) and the MySQL-like one (16 KB pages,
// different header offsets), walked repeatedly, about 2^12 pages per rep.
// Wider tuples (520 and 2000 features, PostgreSQL), instruction
// encode/decode and assembly are recorded as info.
//
// Each point is timed with bench::BestRep (best of up to 5 reps or ~0.5 s).
// Emits BENCH_micro_strider.json; the CI bench-telemetry job compares it
// against bench/baselines/BENCH_micro_strider.json with a 0.75 per-metric
// tolerance, like the other micro_* scoreboards. The sweep is already
// CI-sized, so DANA_BENCH_FAST does not change its shape.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table_printer.h"
#include "ml/datasets.h"
#include "obs/stats_writer.h"
#include "storage/page_layout.h"
#include "storage/table.h"
#include "strider/assembler.h"
#include "strider/codegen.h"
#include "strider/simulator.h"

namespace {

using namespace dana;

constexpr uint32_t kTuples = 4096;
constexpr uint64_t kPagesPerRep = 4096;
constexpr uint64_t kCodecOpsPerRep = uint64_t{1} << 20;
constexpr uint64_t kAssemblesPerRep = uint64_t{1} << 12;

struct WalkPoint {
  const char* label;
  storage::PageLayout layout;
  uint32_t features;
  bool gated;
};

struct WalkRate {
  double pages_per_s = 0.0;
  double tuples_per_s = 0.0;
  uint64_t table_pages = 0;
};

Result<WalkRate> Walk(const WalkPoint& point) {
  ml::DatasetSpec spec;
  spec.dims = point.features;
  spec.tuples = kTuples;
  const ml::Dataset data = ml::GenerateDataset(spec);
  DANA_ASSIGN_OR_RETURN(std::unique_ptr<storage::Table> table,
                        ml::BuildTable("walk", data, point.layout));
  DANA_ASSIGN_OR_RETURN(strider::StriderProgram prog,
                        strider::BuildPageWalkProgram(point.layout));
  const strider::StriderSim sim;
  const uint64_t pages = table->num_pages();
  const uint64_t passes = std::max<uint64_t>(1, kPagesPerRep / pages);
  uint64_t tuples = 0;
  auto wall = bench::BestRep([&]() -> Status {
    tuples = 0;
    for (uint64_t i = 0; i < passes; ++i) {
      for (uint64_t p = 0; p < pages; ++p) {
        DANA_ASSIGN_OR_RETURN(
            strider::StriderRunResult run,
            sim.Run(prog, {table->PageData(p), point.layout.page_size}));
        tuples += run.tuples.size();
      }
    }
    return Status::OK();
  });
  if (!wall.ok()) return wall.status();
  WalkRate rate;
  rate.pages_per_s = static_cast<double>(passes * pages) / *wall;
  rate.tuples_per_s = static_cast<double>(tuples) / *wall;
  rate.table_pages = pages;
  return rate;
}

}  // namespace

int main() {
  bench::Harness::PrintHeader(
      "Strider throughput: page walk, ISA encode/decode, assembly",
      "host-time scoreboard for the Strider interpreter");

  obs::StatsWriter stats("micro_strider");
  stats.SetConfig("tuples", static_cast<double>(kTuples));
  stats.SetConfig("pages_per_rep", static_cast<double>(kPagesPerRep));
  stats.SetConfig("gated_features", 54.0);

  auto fail = [](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    return 1;
  };

  const std::vector<WalkPoint> points = {
      {"postgres", storage::PageLayout::Postgres(), 54, true},
      {"mysql", storage::PageLayout::MySqlLike(), 54, true},
      {"postgres.d520", storage::PageLayout::Postgres(), 520, false},
      {"postgres.d2000", storage::PageLayout::Postgres(), 2000, false},
  };
  TablePrinter walk_table(
      {"point", "features", "table pages", "pages/s", "tuples/s"});
  for (const WalkPoint& point : points) {
    auto rate = Walk(point);
    if (!rate.ok()) return fail(point.label, rate.status());
    walk_table.AddRow({point.label, std::to_string(point.features),
                       std::to_string(rate->table_pages),
                       TablePrinter::Fmt(rate->pages_per_s, 0),
                       TablePrinter::Fmt(rate->tuples_per_s, 0)});
    const std::string label = point.label;
    if (point.gated) {
      stats.Add("pages_per_s." + label, rate->pages_per_s,
                obs::Direction::kHigherIsBetter, 0.75);
    } else {
      stats.Add("pages_per_s." + label, rate->pages_per_s,
                obs::Direction::kInfo);
    }
    stats.Add("tuples_per_s." + label, rate->tuples_per_s,
              obs::Direction::kInfo);
  }

  TablePrinter isa_table({"point", "items / rep", "items/s"});
  {
    strider::Instruction ins;
    ins.op = strider::Opcode::kReadB;
    ins.f1 = strider::Operand::Reg(16);
    ins.f2 = strider::Operand::Imm(12);
    ins.f3 = strider::Operand::Imm(2);
    uint64_t checksum = 0;
    auto wall = bench::BestRep([&]() -> Status {
      for (uint64_t i = 0; i < kCodecOpsPerRep; ++i) {
        ins.f2 = strider::Operand::Imm(static_cast<uint8_t>(i & 0x1F));
        DANA_ASSIGN_OR_RETURN(strider::Instruction back,
                              strider::Instruction::Decode(ins.Encode()));
        checksum += back.f2.value;
      }
      return Status::OK();
    });
    if (!wall.ok()) return fail("encode/decode", wall.status());
    const double rate = static_cast<double>(kCodecOpsPerRep) / *wall;
    isa_table.AddRow({"encode_decode", std::to_string(kCodecOpsPerRep),
                      TablePrinter::Fmt(rate, 0)});
    stats.Add("instructions_per_s.encode_decode", rate,
              obs::Direction::kInfo);
    // Consumes the decoded fields so the loop cannot be elided.
    if (checksum == 0) {
      return fail("encode/decode", Status::Internal("no immediates"));
    }
  }
  {
    const std::string text =
        "readB %t0, 12, 2\nad %t6, 24, 0\nbentr\nreadB %t2, %t6, 4\n"
        "extrBi %t4, %t2, %cr3\ncln %t4, %t5, %cr2\nad %t6, %t6, 4\n"
        "bexit 1, %t6, %t0\n";
    auto wall = bench::BestRep([&]() -> Status {
      for (uint64_t i = 0; i < kAssemblesPerRep; ++i) {
        DANA_RETURN_NOT_OK(strider::Assemble(text).status());
      }
      return Status::OK();
    });
    if (!wall.ok()) return fail("assemble", wall.status());
    const double rate = static_cast<double>(kAssemblesPerRep) / *wall;
    isa_table.AddRow({"assemble", std::to_string(kAssemblesPerRep),
                      TablePrinter::Fmt(rate, 0)});
    stats.Add("programs_per_s.assemble", rate, obs::Direction::kInfo);
  }

  walk_table.Print();
  isa_table.Print();

  auto st = bench::Harness::EmitBenchJson(stats);
  if (!st.ok()) return fail("bench json", st);
  return 0;
}
