// Storage-layer microbenchmark: host throughput of the buffer pool's page
// sweeps and warm fetches, plus the heap-page codec.
//
// The gated scoreboard:
//   - touches_per_s.{clock,lru,promotional}: sequential ScanTable sweeps of
//     a table 3x the pool (1536 pages) over a 512-frame pool with a
//     1024-frame OS tier. This is the slot-pool shape of bench/e2e's
//     sched_preempt_tiered, where such sweeps are nearly all of the host
//     time. Every touch is a pool miss: it probes the page index, consults
//     the lower tiers (lru/promotional), evicts a victim and installs.
//   - touches_per_s.lru_colocated: the same LRU pool and OS tier, with
//     sweeps of a pool-fitting table (half the pool) alternating with
//     sweeps of the 3x-pool table — the co-located mix of
//     sched_preempt_tiered. Together the two outsize pool and tier, so
//     every touch misses both and each sweep evicts the other table.
//   - fetches_per_s.warm: FetchPage over a prewarmed 64-page table in a
//     128-frame pool (every fetch hits).
// Thrashing fetches and the page codec (tuple appends, row encode/decode)
// are recorded as info.
//
// Each point is timed with bench::BestRep (best of up to 5 reps or ~0.5 s).
// Emits BENCH_micro_storage.json; the CI bench-telemetry job compares it
// against bench/baselines/BENCH_micro_storage.json. Each gated metric
// carries a 0.75 tolerance, like the other micro_* scoreboards: wall-clock
// throughput on shared runners jitters, and a return to a hashed page index
// (about 4x slower sweeps) still trips it. The sweep is already CI-sized,
// so DANA_BENCH_FAST does not change its shape.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table_printer.h"
#include "obs/stats_writer.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace {

using namespace dana;
using namespace dana::storage;

constexpr uint64_t kPoolFrames = 512;
constexpr uint64_t kOsFrames = 1024;
constexpr uint64_t kScanPages = 3 * kPoolFrames;
constexpr uint64_t kFitPages = kPoolFrames / 2;
constexpr uint64_t kTouchesPerRep = uint64_t{1} << 21;
constexpr uint64_t kFetchesPerRep = uint64_t{1} << 20;
// Thrashing fetches copy a 32 KB page image each.
constexpr uint64_t kThrashFetchesPerRep = uint64_t{1} << 14;
constexpr uint64_t kPagesPerRep = 4096;
constexpr uint64_t kRowsPerRep = uint64_t{1} << 17;

/// A 54-feature table of at least `pages` pages.
std::unique_ptr<Table> MakeTable(uint64_t pages, const PageLayout& layout) {
  auto table = std::make_unique<Table>("t", Schema::Dense(54), layout);
  const std::vector<double> row(55, 1.0);
  while (table->num_pages() < pages) (void)table->AppendRow(row);
  return table;
}

/// Pages fetched per second, best rep, for repeated passes over `table`
/// totalling about `fetches` fetches.
Result<double> FetchRate(BufferPool* pool, const Table& table,
                         uint64_t fetches) {
  const uint64_t passes = fetches / table.num_pages();
  auto wall = bench::BestRep([&]() -> Status {
    for (uint64_t i = 0; i < passes; ++i) {
      for (uint64_t p = 0; p < table.num_pages(); ++p) {
        DANA_RETURN_NOT_OK(pool->FetchPage(table, p).status());
      }
    }
    return Status::OK();
  });
  if (!wall.ok()) return wall.status();
  return static_cast<double>(passes * table.num_pages()) / *wall;
}

}  // namespace

int main() {
  bench::Harness::PrintHeader(
      "Storage layer throughput: pool sweeps, warm fetches, page codec",
      "host-time scoreboard for the storage layer");

  obs::StatsWriter stats("micro_storage");
  stats.SetConfig("pool_frames", static_cast<double>(kPoolFrames));
  stats.SetConfig("os_frames", static_cast<double>(kOsFrames));
  stats.SetConfig("scan_pages", static_cast<double>(kScanPages));
  stats.SetConfig("fit_pages", static_cast<double>(kFitPages));
  stats.SetConfig("touches_per_rep", static_cast<double>(kTouchesPerRep));
  stats.SetConfig("fetches_per_rep", static_cast<double>(kFetchesPerRep));

  auto fail = [](const char* what, const Status& st) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    return 1;
  };
  const PageLayout layout;

  TablePrinter sweep_table({"eviction", "touches / rep", "hit rate",
                            "best wall (s)", "touches/s"});
  const uint64_t sweeps = kTouchesPerRep / kScanPages;
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    auto pool = BufferPool::SizedInFrames(kPoolFrames, layout.page_size,
                                          DiskModel{}, kind, kOsFrames);
    const uint32_t tid = pool.InternTable("scan");
    auto wall = bench::BestRep([&]() -> Status {
      pool.Clear();
      for (uint64_t s = 0; s < sweeps; ++s) pool.ScanTable(tid, kScanPages);
      return Status::OK();
    });
    if (!wall.ok()) return fail("sweep", wall.status());
    const double touches_per_s =
        static_cast<double>(sweeps * kScanPages) / *wall;
    const std::string name = EvictionKindName(kind);
    sweep_table.AddRow({name, std::to_string(sweeps * kScanPages),
                        TablePrinter::Fmt(pool.stats().HitRate(), 3),
                        TablePrinter::Fmt(*wall, 4),
                        TablePrinter::Fmt(touches_per_s, 0)});
    stats.Add("touches_per_s." + name, touches_per_s,
              obs::Direction::kHigherIsBetter, 0.75);
    stats.Add("sweep_wall_s." + name, *wall, obs::Direction::kInfo);
  }

  {
    auto pool = BufferPool::SizedInFrames(kPoolFrames, layout.page_size,
                                          DiskModel{}, EvictionKind::kLru,
                                          kOsFrames);
    const uint32_t big = pool.InternTable("scan");
    const uint32_t fit = pool.InternTable("fit");
    const uint64_t pairs = kTouchesPerRep / (kScanPages + kFitPages);
    auto wall = bench::BestRep([&]() -> Status {
      pool.Clear();
      for (uint64_t s = 0; s < pairs; ++s) {
        pool.ScanTable(fit, kFitPages);
        pool.ScanTable(big, kScanPages);
      }
      return Status::OK();
    });
    if (!wall.ok()) return fail("co-located sweep", wall.status());
    const uint64_t touches = pairs * (kScanPages + kFitPages);
    const double touches_per_s = static_cast<double>(touches) / *wall;
    sweep_table.AddRow({"lru_colocated", std::to_string(touches),
                        TablePrinter::Fmt(pool.stats().HitRate(), 3),
                        TablePrinter::Fmt(*wall, 4),
                        TablePrinter::Fmt(touches_per_s, 0)});
    stats.Add("touches_per_s.lru_colocated", touches_per_s,
              obs::Direction::kHigherIsBetter, 0.75);
    stats.Add("sweep_wall_s.lru_colocated", *wall, obs::Direction::kInfo);
  }

  TablePrinter fetch_table({"point", "pool frames", "hit rate", "fetches/s"});
  const std::unique_ptr<Table> owned = MakeTable(64, layout);
  const Table& table = *owned;
  {
    BufferPool warm(128ull * layout.page_size, layout.page_size, DiskModel{});
    warm.Prewarm(table);
    auto rate = FetchRate(&warm, table, kFetchesPerRep);
    if (!rate.ok()) return fail("fetch", rate.status());
    fetch_table.AddRow({"warm", "128",
                        TablePrinter::Fmt(warm.stats().HitRate(), 3),
                        TablePrinter::Fmt(*rate, 0)});
    stats.Add("fetches_per_s.warm", *rate, obs::Direction::kHigherIsBetter,
              0.75);
  }
  {
    BufferPool thrash(16ull * layout.page_size, layout.page_size,
                      DiskModel{});
    auto rate = FetchRate(&thrash, table, kThrashFetchesPerRep);
    if (!rate.ok()) return fail("fetch", rate.status());
    fetch_table.AddRow({"thrash", "16",
                        TablePrinter::Fmt(thrash.stats().HitRate(), 3),
                        TablePrinter::Fmt(*rate, 0)});
    stats.Add("fetches_per_s.thrash", *rate, obs::Direction::kInfo);
  }

  TablePrinter codec_table({"point", "items / rep", "items/s"});
  {
    std::vector<uint8_t> buf(layout.page_size);
    const std::vector<uint8_t> payload(220, 0x5A);
    uint64_t tuples = 0;
    auto wall = bench::BestRep([&]() -> Status {
      tuples = 0;
      for (uint64_t i = 0; i < kPagesPerRep; ++i) {
        Page page(buf.data(), layout);
        page.InitEmpty();
        while (page.AddTuple(payload, 55).ok()) ++tuples;
      }
      return Status::OK();
    });
    if (!wall.ok()) return fail("add tuple", wall.status());
    const double rate = static_cast<double>(tuples) / *wall;
    codec_table.AddRow({"add_tuple", std::to_string(tuples),
                        TablePrinter::Fmt(rate, 0)});
    stats.Add("tuples_per_s.add_tuple", rate, obs::Direction::kInfo);
  }
  for (uint32_t width : {54u, 520u}) {
    const Schema schema = Schema::Dense(width);
    const std::vector<double> row(width + 1, 1.25);
    std::vector<uint8_t> buf(schema.RowBytes());
    std::vector<double> out;
    auto wall = bench::BestRep([&]() -> Status {
      for (uint64_t i = 0; i < kRowsPerRep; ++i) {
        DANA_RETURN_NOT_OK(schema.EncodeRow(row, buf.data()));
        DANA_RETURN_NOT_OK(
            schema.DecodeRow(buf.data(), schema.RowBytes(), &out));
      }
      return Status::OK();
    });
    if (!wall.ok()) return fail("row codec", wall.status());
    const double rate = static_cast<double>(kRowsPerRep) / *wall;
    const std::string point = "codec.w" + std::to_string(width);
    codec_table.AddRow({point, std::to_string(kRowsPerRep),
                        TablePrinter::Fmt(rate, 0)});
    stats.Add("rows_per_s." + point, rate, obs::Direction::kInfo);
  }

  sweep_table.Print();
  fetch_table.Print();
  codec_table.Print();

  auto st = bench::Harness::EmitBenchJson(stats);
  if (!st.ok()) return fail("bench json", st);
  return 0;
}
