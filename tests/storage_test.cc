#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dana::storage {
namespace {

// ---------------------------------------------------------------------------
// ItemId packing
// ---------------------------------------------------------------------------

TEST(ItemIdTest, PackUnpackRoundTrip) {
  for (uint32_t off : {0u, 1u, 24u, 32767u}) {
    for (uint32_t flags : {kLpUnused, kLpNormal, kLpRedirect, kLpDead}) {
      for (uint32_t len : {0u, 5u, 32767u}) {
        uint32_t o, f, l;
        UnpackItemId(PackItemId(off, flags, len), &o, &f, &l);
        EXPECT_EQ(o, off);
        EXPECT_EQ(f, flags);
        EXPECT_EQ(l, len);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Page codec
// ---------------------------------------------------------------------------

class PageTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  PageLayout layout() const {
    PageLayout l;
    l.page_size = GetParam();
    return l;
  }
};

TEST_P(PageTest, InitEmptySetsBounds) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size, 0xAB);
  Page page(buf.data(), l);
  page.InitEmpty();
  EXPECT_EQ(page.lower(), l.header_size);
  EXPECT_EQ(page.upper(), l.page_size);
  EXPECT_EQ(page.special(), l.page_size);
  EXPECT_EQ(page.ItemCount(), 0u);
  EXPECT_TRUE(page.Validate().ok());
}

TEST_P(PageTest, AddAndGetTuple) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size);
  Page page(buf.data(), l);
  page.InitEmpty();

  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto slot = page.AddTuple(payload, 5);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(page.ItemCount(), 1u);

  auto got = page.GetTuplePayload(0);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), payload.size());
  EXPECT_EQ(0, std::memcmp(got->data(), payload.data(), payload.size()));
}

TEST_P(PageTest, TuplesGrowDownward) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size);
  Page page(buf.data(), l);
  page.InitEmpty();
  std::vector<uint8_t> payload(16, 0x7);
  ASSERT_TRUE(page.AddTuple(payload, 4).ok());
  const uint16_t upper1 = page.upper();
  ASSERT_TRUE(page.AddTuple(payload, 4).ok());
  EXPECT_EQ(page.upper(), upper1 - (l.tuple_header_size + 16));
  EXPECT_TRUE(page.Validate().ok());
}

TEST_P(PageTest, FillsToComputedCapacity) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size);
  Page page(buf.data(), l);
  page.InitEmpty();
  const uint32_t payload_size = 100;
  std::vector<uint8_t> payload(payload_size, 1);
  const uint32_t expect = l.TuplesPerPage(payload_size);
  uint32_t added = 0;
  while (page.AddTuple(payload, 25).ok()) ++added;
  EXPECT_EQ(added, expect);
  EXPECT_TRUE(page.Validate().ok());
  // The next add reports exhaustion, not corruption.
  EXPECT_TRUE(page.AddTuple(payload, 25).status().IsResourceExhausted());
}

TEST_P(PageTest, GetTupleOutOfRange) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size);
  Page page(buf.data(), l);
  page.InitEmpty();
  EXPECT_TRUE(page.GetTuplePayload(0).status().IsOutOfRange());
}

TEST_P(PageTest, TupleHeaderFields) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size);
  Page page(buf.data(), l);
  page.InitEmpty();
  std::vector<uint8_t> payload(8, 0xEE);
  ASSERT_TRUE(page.AddTuple(payload, 3).ok());
  auto raw = page.GetTupleRaw(0);
  ASSERT_TRUE(raw.ok());
  // infomask2 low bits carry the attribute count; hoff is the header size.
  uint16_t infomask2;
  std::memcpy(&infomask2, raw->data() + 18, 2);
  EXPECT_EQ(infomask2 & 0x07FF, 3);
  EXPECT_EQ((*raw)[22], l.tuple_header_size);
}

TEST_P(PageTest, ValidateDetectsCorruptLower) {
  PageLayout l = layout();
  std::vector<uint8_t> buf(l.page_size);
  Page page(buf.data(), l);
  page.InitEmpty();
  // lower > upper is corruption.
  const uint16_t bad = static_cast<uint16_t>(l.page_size);
  std::memcpy(buf.data() + l.lower_offset, &bad, 2);
  const uint16_t upper = 100;
  std::memcpy(buf.data() + l.upper_offset, &upper, 2);
  EXPECT_TRUE(page.Validate().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageTest,
                         ::testing::Values(8 * 1024, 16 * 1024, 32 * 1024));

// ---------------------------------------------------------------------------
// Schema codec
// ---------------------------------------------------------------------------

TEST(SchemaTest, DenseFactory) {
  Schema s = Schema::Dense(4);
  EXPECT_EQ(s.num_columns(), 5u);  // 4 features + label
  EXPECT_EQ(s.RowBytes(), 20u);
  EXPECT_EQ(s.columns().back().name, "label");
}

TEST(SchemaTest, EncodeDecodeRoundTripFloat4) {
  Schema s = Schema::Dense(3);
  std::vector<double> row = {1.5, -2.25, 0.125, 1.0};
  std::vector<uint8_t> buf(s.RowBytes());
  ASSERT_TRUE(s.EncodeRow(row, buf.data()).ok());
  std::vector<double> out;
  ASSERT_TRUE(s.DecodeRow(buf.data(), s.RowBytes(), &out).ok());
  EXPECT_EQ(out, row);  // all values exactly representable in fp32
}

TEST(SchemaTest, MixedColumnTypes) {
  Schema s({{"a", ColumnType::kFloat8},
            {"b", ColumnType::kInt32},
            {"c", ColumnType::kFloat4}});
  EXPECT_EQ(s.RowBytes(), 16u);
  EXPECT_EQ(s.ColumnOffset(1), 8u);
  std::vector<double> row = {3.14159265358979, 42.0, 2.5};
  std::vector<uint8_t> buf(s.RowBytes());
  ASSERT_TRUE(s.EncodeRow(row, buf.data()).ok());
  std::vector<double> out;
  ASSERT_TRUE(s.DecodeRow(buf.data(), s.RowBytes(), &out).ok());
  EXPECT_DOUBLE_EQ(out[0], 3.14159265358979);
  EXPECT_DOUBLE_EQ(out[1], 42.0);
  EXPECT_DOUBLE_EQ(out[2], 2.5);
}

TEST(SchemaTest, EncodeWrongWidthFails) {
  Schema s = Schema::Dense(2);
  std::vector<uint8_t> buf(s.RowBytes());
  EXPECT_TRUE(s.EncodeRow({1.0}, buf.data()).IsInvalidArgument());
}

TEST(SchemaTest, DecodeShortBufferFails) {
  Schema s = Schema::Dense(2);
  std::vector<uint8_t> buf(4);
  std::vector<double> out;
  EXPECT_TRUE(s.DecodeRow(buf.data(), 4, &out).IsCorruption());
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

PageLayout SmallLayout() {
  PageLayout l;
  l.page_size = 8 * 1024;
  return l;
}

TEST(TableTest, AppendAndReadBack) {
  Table t("t", Schema::Dense(3), SmallLayout());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({1.0 * i, 2.0 * i, 3.0 * i, 1.0}).ok());
  }
  EXPECT_EQ(t.num_tuples(), 10u);
  std::vector<double> row;
  ASSERT_TRUE(t.ReadRow(0, 4, &row).ok());
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 12.0);
}

TEST(TableTest, SpillsToMultiplePages) {
  Table t("t", Schema::Dense(100), SmallLayout());
  const uint32_t per_page = SmallLayout().TuplesPerPage(101 * 4);
  const uint32_t n = per_page * 3 + 1;
  std::vector<double> row(101, 0.5);
  for (uint32_t i = 0; i < n; ++i) ASSERT_TRUE(t.AppendRow(row).ok());
  EXPECT_EQ(t.num_pages(), 4u);
  EXPECT_EQ(t.TuplesOnPage(0), per_page);
  EXPECT_EQ(t.TuplesOnPage(3), 1u);
}

TEST(TableTest, ReadAllRowsMatchesInserted) {
  Table t("t", Schema::Dense(2), SmallLayout());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.AppendRow({i * 0.5, i * 0.25, static_cast<double>(i)}).ok());
  }
  auto rows = t.ReadAllRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 500u);
  EXPECT_DOUBLE_EQ((*rows)[499][2], 499.0);
}

TEST(TableTest, RowTooWideForPageFails) {
  PageLayout l = SmallLayout();
  Table t("t", Schema::Dense(4000), l);  // 16 KB row on an 8 KB page
  std::vector<double> row(4001, 1.0);
  EXPECT_FALSE(t.AppendRow(row).ok());
}

TEST(TableTest, PagesValidateAsPostgresPages) {
  Table t("t", Schema::Dense(10), SmallLayout());
  std::vector<double> row(11, 2.0);
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(t.AppendRow(row).ok());
  for (uint64_t p = 0; p < t.num_pages(); ++p) {
    PageView page(t.PageData(p), t.layout());
    EXPECT_TRUE(page.Validate().ok()) << "page " << p;
  }
}

TEST(TableTest, ZeroRowsPlaceTuplesLikeAppendRow) {
  // A shape table is the real table with its payload zeroed: same pages,
  // and every byte outside the payloads (header, line pointers, tuple
  // headers) equal.
  Table real("t", Schema::Dense(100), SmallLayout());
  Table shape("t", Schema::Dense(100), SmallLayout());
  Rng rng(7);
  const uint32_t n = SmallLayout().TuplesPerPage(101 * 4) * 3 + 1;
  std::vector<double> row(101);
  for (uint32_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.Gaussian();
    ASSERT_TRUE(real.AppendRow(row).ok());
  }
  ASSERT_TRUE(shape.AppendZeroRows(n).ok());
  ASSERT_EQ(shape.num_pages(), real.num_pages());
  ASSERT_EQ(shape.num_tuples(), real.num_tuples());
  const PageLayout layout = SmallLayout();
  for (uint64_t p = 0; p < real.num_pages(); ++p) {
    std::vector<uint8_t> masked(real.PageData(p),
                                real.PageData(p) + layout.page_size);
    Page page(masked.data(), layout);
    ASSERT_EQ(page.ItemCount(), shape.TuplesOnPage(p));
    for (uint32_t slot = 0; slot < page.ItemCount(); ++slot) {
      auto item = page.GetItemId(slot);
      ASSERT_TRUE(item.ok());
      const auto [off, len] = *item;
      std::memset(masked.data() + off + layout.tuple_header_size, 0,
                  len - layout.tuple_header_size);
    }
    EXPECT_EQ(std::memcmp(masked.data(), shape.PageData(p),
                          layout.page_size),
              0)
        << "page " << p;
  }
}

/// Page `p` of `t` with every tuple payload zeroed: what is left is the
/// page header, the line pointers and the tuple headers.
std::vector<uint8_t> MaskedPage(const Table& t, uint64_t p) {
  const PageLayout& layout = t.layout();
  std::vector<uint8_t> masked(t.PageData(p), t.PageData(p) + layout.page_size);
  PageView page(masked.data(), layout);
  for (uint32_t slot = 0; slot < page.ItemCount(); ++slot) {
    auto item = page.GetItemId(slot);
    EXPECT_TRUE(item.ok());
    if (!item.ok()) break;
    const auto [off, len] = *item;
    std::memset(masked.data() + off + layout.tuple_header_size, 0,
                len - layout.tuple_header_size);
  }
  return masked;
}

TEST(TableTest, ZeroRowsShareOneImageForFullPages) {
  // Three full pages and one partial page of zero rows: the full pages
  // are one image, the partial page has its own, and the table counts
  // its tuples as AppendRow does.
  const uint32_t per_page = SmallLayout().TuplesPerPage(101 * 4);
  const uint32_t n = per_page * 3 + 1;
  Table shape("t", Schema::Dense(100), SmallLayout());
  ASSERT_TRUE(shape.AppendZeroRows(n).ok());
  Table rows("t", Schema::Dense(100), SmallLayout());
  const std::vector<double> zeros(101, 0.0);
  for (uint32_t i = 0; i < n; ++i) ASSERT_TRUE(rows.AppendRow(zeros).ok());

  ASSERT_EQ(shape.num_pages(), 4u);
  EXPECT_EQ(shape.PageData(1), shape.PageData(0));
  EXPECT_EQ(shape.PageData(2), shape.PageData(0));
  EXPECT_NE(shape.PageData(3), shape.PageData(0));
  EXPECT_EQ(shape.SizeBytes(), 4u * SmallLayout().page_size);
  EXPECT_EQ(shape.num_tuples(), rows.num_tuples());
  ASSERT_EQ(shape.num_pages(), rows.num_pages());
  for (uint64_t p = 0; p < rows.num_pages(); ++p) {
    EXPECT_EQ(shape.TuplesOnPage(p), rows.TuplesOnPage(p)) << "page " << p;
    EXPECT_EQ(std::memcmp(shape.PageData(p), rows.PageData(p),
                          SmallLayout().page_size),
              0)
        << "page " << p;
  }
}

TEST(TableTest, ZeroRowsBetweenRealRowsPlaceTuplesLikeAppendRow) {
  // Real rows, then zero rows, then a real row again, places every tuple
  // as AppendRow alone does. With extra == 0 the zero rows end on a
  // shared full page, so the last row must start a page of its own rather
  // than write the shared image.
  const uint32_t per_page = SmallLayout().TuplesPerPage(101 * 4);
  const uint32_t k = per_page / 2;
  for (uint32_t extra : {0u, 5u}) {
    SCOPED_TRACE("extra " + std::to_string(extra));
    const uint32_t n = (per_page - k) + per_page * 3 + extra;
    Rng rng(11);
    std::vector<std::vector<double>> real_rows(k + n + 1,
                                               std::vector<double>(101));
    for (auto& row : real_rows) {
      for (double& v : row) v = rng.Gaussian();
    }
    Table real("t", Schema::Dense(100), SmallLayout());
    for (const auto& row : real_rows) ASSERT_TRUE(real.AppendRow(row).ok());
    Table mixed("t", Schema::Dense(100), SmallLayout());
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_TRUE(mixed.AppendRow(real_rows[i]).ok());
    }
    ASSERT_TRUE(mixed.AppendZeroRows(n).ok());
    ASSERT_TRUE(mixed.AppendRow(real_rows.back()).ok());

    // Page 0 mixes real and zero rows; pages 1-3 are one zero image.
    EXPECT_EQ(mixed.PageData(2), mixed.PageData(1));
    EXPECT_EQ(mixed.PageData(3), mixed.PageData(1));
    EXPECT_NE(mixed.PageData(4), mixed.PageData(1));
    ASSERT_EQ(mixed.num_pages(), real.num_pages());
    ASSERT_EQ(mixed.num_tuples(), real.num_tuples());
    for (uint64_t p = 0; p < real.num_pages(); ++p) {
      EXPECT_EQ(mixed.TuplesOnPage(p), real.TuplesOnPage(p)) << "page " << p;
      EXPECT_EQ(MaskedPage(mixed, p), MaskedPage(real, p)) << "page " << p;
    }
    // The real rows read back as AppendRow alone stores them.
    const uint64_t last = real.num_pages() - 1;
    for (const auto& [page, slot] :
         {std::pair<uint64_t, uint32_t>{0, k - 1},
          {last, real.TuplesOnPage(last) - 1}}) {
      std::vector<double> got, want;
      ASSERT_TRUE(mixed.ReadRow(page, slot, &got).ok());
      ASSERT_TRUE(real.ReadRow(page, slot, &want).ok());
      EXPECT_EQ(got, want) << "page " << page << " slot " << slot;
    }
  }
}

TEST(TableTest, ZeroRowsTooWideForPageFail) {
  Table t("t", Schema::Dense(4000), SmallLayout());  // 16 KB rows, 8 KB page
  EXPECT_FALSE(t.AppendZeroRows(1).ok());
  EXPECT_EQ(t.num_tuples(), 0u);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

std::unique_ptr<Table> MakeTable(uint32_t pages_wanted,
                                 const std::string& name = "bp") {
  auto t = std::make_unique<Table>(name, Schema::Dense(100), SmallLayout());
  std::vector<double> row(101, 1.0);
  while (t->num_pages() < pages_wanted) {
    EXPECT_TRUE(t->AppendRow(row).ok());
  }
  return t;
}

TEST(BufferPoolTest, MissThenHit) {
  auto t = MakeTable(4);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  ASSERT_TRUE(pool.FetchPage(*t, 0).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  ASSERT_TRUE(pool.FetchPage(*t, 0).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, MissChargesIoTime) {
  auto t = MakeTable(2);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  ASSERT_TRUE(pool.FetchPage(*t, 0).ok());
  EXPECT_GT(pool.stats().io_time.nanos(), 0.0);
  const auto after_miss = pool.stats().io_time;
  ASSERT_TRUE(pool.FetchPage(*t, 0).ok());
  EXPECT_EQ(pool.stats().io_time.nanos(), after_miss.nanos());
}

TEST(BufferPoolTest, FetchedBytesMatchTable) {
  auto t = MakeTable(3);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  auto frame = pool.FetchPage(*t, 2);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(0, std::memcmp(*frame, t->PageData(2), 8 * 1024));
  // The pool copies no page: a fetch reads the table's own bytes in place.
  EXPECT_EQ(*frame, t->PageData(2));
}

TEST(BufferPoolTest, EvictsWhenFull) {
  auto t = MakeTable(8);
  BufferPool pool(4 * 8 * 1024, 8 * 1024, DiskModel{});  // 4 frames
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  EXPECT_EQ(pool.stats().misses, 8u);
  EXPECT_GE(pool.stats().evictions, 4u);
}

TEST(BufferPoolTest, SequentialRescanOfOversizedTableKeepsMissing) {
  auto t = MakeTable(8);
  BufferPool pool(4 * 8 * 1024, 8 * 1024, DiskModel{});
  for (int scan = 0; scan < 2; ++scan) {
    for (uint64_t p = 0; p < 8; ++p) {
      ASSERT_TRUE(pool.FetchPage(*t, p).ok());
    }
  }
  // A 2x-oversized sequential scan with clock replacement cannot hit much.
  EXPECT_GE(pool.stats().misses, 12u);
}

TEST(BufferPoolTest, PrewarmMakesResidentWithoutIo) {
  auto t = MakeTable(4);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t);
  EXPECT_DOUBLE_EQ(pool.ResidentFraction(*t), 1.0);
  EXPECT_EQ(pool.stats().io_time.nanos(), 0.0);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, PrewarmCapsAtCapacity) {
  auto t = MakeTable(8);
  BufferPool pool(4 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t);
  EXPECT_DOUBLE_EQ(pool.ResidentFraction(*t), 0.5);
}

TEST(BufferPoolTest, ClearDropsResidency) {
  auto t = MakeTable(4);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t);
  pool.Clear();
  EXPECT_DOUBLE_EQ(pool.ResidentFraction(*t), 0.0);
}

TEST(BufferPoolTest, RejectsMismatchedPageSize) {
  auto t = MakeTable(2);  // 8 KB pages
  BufferPool pool(1 << 20, 32 * 1024, DiskModel{});
  EXPECT_TRUE(pool.FetchPage(*t, 0).status().IsInvalidArgument());
}

TEST(BufferPoolTest, RejectsOutOfRangePage) {
  auto t = MakeTable(2);
  BufferPool pool(1 << 20, 8 * 1024, DiskModel{});
  EXPECT_TRUE(pool.FetchPage(*t, 99).status().IsOutOfRange());
}

TEST(DiskModelTest, SeqReadTimeScalesWithBytes) {
  DiskModel d;
  const auto t1 = d.SeqReadTime(1 << 20, 32 * 1024);
  const auto t2 = d.SeqReadTime(2 << 20, 32 * 1024);
  EXPECT_GT(t2.nanos(), t1.nanos() * 1.5);
  EXPECT_EQ(d.SeqReadTime(0, 32 * 1024).nanos(), 0.0);
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, RegisterLookupDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.RegisterTable(MakeTable(1)).ok());
  EXPECT_TRUE(cat.HasTable("bp"));
  ASSERT_TRUE(cat.GetTable("bp").ok());
  EXPECT_TRUE(cat.RegisterTable(MakeTable(1)).IsAlreadyExists());
  ASSERT_TRUE(cat.DropTable("bp").ok());
  EXPECT_TRUE(cat.GetTable("bp").status().IsNotFound());
  EXPECT_TRUE(cat.DropTable("bp").IsNotFound());
}

TEST(CatalogTest, UdfMetadataRoundTrip) {
  Catalog cat;
  EXPECT_TRUE(cat.GetUdfMetadata("f").status().IsNotFound());
  cat.PutUdfMetadata("f", "design blob");
  auto blob = cat.GetUdfMetadata("f");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "design blob");
  cat.PutUdfMetadata("f", "v2");
  EXPECT_EQ(*cat.GetUdfMetadata("f"), "v2");
  EXPECT_EQ(cat.UdfNames(), std::vector<std::string>{"f"});
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog cat;
  auto t1 = std::make_unique<Table>("zeta", Schema::Dense(1), SmallLayout());
  auto t2 = std::make_unique<Table>("alpha", Schema::Dense(1), SmallLayout());
  ASSERT_TRUE(cat.RegisterTable(std::move(t1)).ok());
  ASSERT_TRUE(cat.RegisterTable(std::move(t2)).ok());
  EXPECT_EQ(cat.TableNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

// ---------------------------------------------------------------------------
// Residency introspection (resident_frames / last_table / partial prewarm)
// ---------------------------------------------------------------------------

TEST(ResidencyIntrospectionTest, ResidentFramesTrackFetchesAndClear) {
  auto t = MakeTable(8);
  BufferPool pool(4 * 8 * 1024, 8 * 1024, DiskModel{});  // 4 frames
  EXPECT_EQ(pool.resident_frames(), 0u);
  EXPECT_EQ(pool.last_table(), "");
  for (uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  EXPECT_EQ(pool.resident_frames(), 3u);
  EXPECT_EQ(pool.last_table(), "bp");
  // Overflowing the pool evicts but never exceeds capacity.
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
  }
  EXPECT_EQ(pool.resident_frames(), 4u);
  pool.ResetStats();  // stats reset must not touch residency state
  EXPECT_EQ(pool.resident_frames(), 4u);
  pool.Clear();
  EXPECT_EQ(pool.resident_frames(), 0u);
  EXPECT_EQ(pool.last_table(), "");
}

TEST(ResidencyIntrospectionTest, PartialPrewarmLeavesFractionResident) {
  auto t = MakeTable(8);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t, 0.5);
  EXPECT_DOUBLE_EQ(pool.ResidentFraction(*t), 0.5);
  EXPECT_EQ(pool.resident_frames(), 4u);
  // A rescan pays I/O only for the un-warmed half.
  BufferPool cold(16 * 8 * 1024, 8 * 1024, DiskModel{});
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool.FetchPage(*t, p).ok());
    ASSERT_TRUE(cold.FetchPage(*t, p).ok());
  }
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_GT(pool.stats().io_time.nanos(), 0.0);
  EXPECT_LT(pool.stats().io_time.nanos(), cold.stats().io_time.nanos());
}

/// Property-style coverage: any seeded interleaving of fetches, sweeps,
/// prewarms and clears across independent pools must keep each pool's
/// residency accounting consistent, under every eviction policy and every
/// OS-tier shape (none, smaller than the pool, larger than the pool):
///   - each tier holds at most its capacity;
///   - in each tier the per-table counts partition the tier's total;
///   - the pool's per-table counts match a recount of its page index via
///     ResidentFraction;
///   - under lru/promotional, where the OS tier is exclusive of the pool,
///     no table has more pages in the two tiers together than it has.
TEST(ResidencyIntrospectionTest, PropertyResidencyAccountingInvariants) {
  // Pages are keyed by table *name* (catalog semantics), so the two tables
  // need distinct names to occupy distinct frames.
  auto small = MakeTable(3, "bp_small");
  auto big = MakeTable(10, "bp_big");
  const std::vector<const Table*> tables = {small.get(), big.get()};
  // Logical tables mixed into the same pools via data-free TouchPage: the
  // accounting invariants must hold across physical and logical frames.
  const std::vector<std::pair<std::string, uint64_t>> logical = {
      {"lg_half", 2}, {"lg_over", 7}};
  std::vector<std::pair<std::string, uint64_t>> all = logical;
  for (const Table* t : tables) all.emplace_back(t->name(), t->num_pages());
  constexpr uint64_t kPoolFrames = 4;
  for (EvictionKind kind : {EvictionKind::kClock, EvictionKind::kLru,
                            EvictionKind::kPromotional}) {
    for (uint64_t os_frames : {0u, 2u, 8u}) {
      SCOPED_TRACE(std::string(EvictionKindName(kind)) + ", OS tier of " +
                   std::to_string(os_frames) + " frames");
      const bool exclusive = kind != EvictionKind::kClock;
      std::vector<BufferPool> pools;
      for (int i = 0; i < 3; ++i) {
        pools.push_back(BufferPool::SizedInFrames(kPoolFrames, 8 * 1024,
                                                  DiskModel{}, kind,
                                                  os_frames));
      }
      const uint64_t capacity[2] = {kPoolFrames, os_frames};
      dana::Rng rng(20260726);
      for (int step = 0; step < 2000; ++step) {
        BufferPool& target = pools[rng.UniformInt(pools.size())];
        const Table& table = *tables[rng.UniformInt(tables.size())];
        const uint64_t action = rng.UniformInt(100);
        if (action < 78) {
          ASSERT_TRUE(
              target.FetchPage(table, rng.UniformInt(table.num_pages()))
                  .ok());
        } else if (action < 88) {
          const auto& [name, pages] = logical[rng.UniformInt(logical.size())];
          if (rng.UniformInt(2) == 0) {
            target.ScanTable(name, pages);
          } else {
            target.TouchPage(name, rng.UniformInt(pages));
          }
        } else if (action < 94) {
          target.Prewarm(table, rng.Uniform());
        } else if (action < 97) {
          target.Clear();
        } else {
          target.ResetStats();
        }

        for (const BufferPool& pool : pools) {
          for (size_t tier : {BufferPool::kPoolTier, BufferPool::kOsTier}) {
            uint64_t per_table_sum = 0;
            for (const auto& [name, pages] : all) {
              per_table_sum += pool.tier_resident_frames(tier, name);
            }
            ASSERT_EQ(per_table_sum, pool.tier_resident_frames(tier))
                << "per-table counts of tier " << tier << " at step " << step
                << " do not sum to the tier's total";
            ASSERT_LE(pool.tier_resident_frames(tier), capacity[tier])
                << "tier " << tier << " over capacity at step " << step;
          }
          ASSERT_EQ(pool.resident_frames(),
                    pool.tier_resident_frames(BufferPool::kPoolTier));
          // The incremental count agrees with a from-scratch recount of
          // which pages each table has resident.
          for (const Table* t : tables) {
            EXPECT_NEAR(pool.ResidentFraction(*t) *
                            static_cast<double>(t->num_pages()),
                        static_cast<double>(pool.resident_frames(t->name())),
                        1e-6);
          }
          for (const auto& [name, pages] : logical) {
            EXPECT_NEAR(pool.ResidentShare(name, pages),
                        static_cast<double>(pool.resident_frames(name)) /
                            static_cast<double>(pages),
                        1e-12);
          }
          for (const auto& [name, pages] : all) {
            const uint64_t pool_frames = pool.resident_frames(name);
            const uint64_t os_frames_of =
                pool.tier_resident_frames(BufferPool::kOsTier, name);
            ASSERT_LE(pool_frames, pages);
            if (exclusive) {
              ASSERT_LE(pool_frames + os_frames_of, pages)
                  << "exclusivity: " << name << " has " << pool_frames
                  << " pool + " << os_frames_of << " OS-tier frames at step "
                  << step;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-pool mode (data-free residency probes; physical ground truth)
// ---------------------------------------------------------------------------

TEST(SharedPoolTest, TouchPageHitsMissesAndEvictsLikeFetch) {
  BufferPool pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{});
  EXPECT_EQ(pool.num_frames(), 4u);
  EXPECT_FALSE(pool.TouchPage("t", 0));  // miss installs
  EXPECT_TRUE(pool.TouchPage("t", 0));   // repeat hits
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  // Data-free probes never charge I/O time: the shared pool is occupancy
  // ground truth, not a data server.
  EXPECT_EQ(pool.stats().io_time.nanos(), 0.0);
  EXPECT_EQ(pool.last_table(), "t");
  // Overflow evicts under install pressure, capacity never exceeded.
  for (uint64_t p = 0; p < 8; ++p) pool.TouchPage("t", p);
  EXPECT_EQ(pool.resident_frames(), 4u);
  EXPECT_GE(pool.stats().evictions, 4u);
}

TEST(SharedPoolTest, ScanLeavesTrailingWindowOfOversizedTable) {
  BufferPool pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{});
  pool.ScanTable("big", 8);
  // A sequential scan of a 2x-oversized table under clock replacement ends
  // with the trailing pool-sized window resident.
  EXPECT_EQ(pool.resident_frames("big"), 4u);
  EXPECT_DOUBLE_EQ(pool.ResidentShare("big", 8), 0.5);
  // A table first seen by the full pool comes in a run of victims at a
  // time and displaces its own leading pages as well as big's.
  pool.ScanTable("next", 6);
  EXPECT_EQ(pool.resident_frames("next"), 4u);
  EXPECT_EQ(pool.resident_frames("big"), 0u);
  // A pool-fitting table ends fully resident, and a repeat sweep is an
  // all-hit no-op for it.
  pool.Clear();
  pool.ScanTable("fits", 3);
  EXPECT_DOUBLE_EQ(pool.ResidentShare("fits", 3), 1.0);
  const uint64_t evictions = pool.stats().evictions;
  pool.ScanTable("fits", 3);
  EXPECT_DOUBLE_EQ(pool.ResidentShare("fits", 3), 1.0);
  EXPECT_EQ(pool.stats().evictions, evictions);
}

TEST(SharedPoolTest, CrossTableEvictionFollowsClockHandOrder) {
  // a and b fill the pool; c's installs must come out of whatever the
  // clock hand reaches first, not proportionally from both.
  BufferPool pool = BufferPool::SizedInFrames(10, 8 * 1024, DiskModel{});
  pool.ScanTable("a", 3);
  pool.ScanTable("b", 3);
  EXPECT_EQ(pool.resident_frames("a"), 3u);
  EXPECT_EQ(pool.resident_frames("b"), 3u);
  pool.ScanTable("c", 5);
  // 4 free frames absorb, 1 install evicts: the hand (parked past b's
  // frames) wraps and takes a's first frame — not 0.5 frames from each.
  EXPECT_EQ(pool.resident_frames("c"), 5u);
  EXPECT_EQ(pool.resident_frames("a") + pool.resident_frames("b"), 5u);
  EXPECT_EQ(pool.resident_frames(), 10u);
  EXPECT_NE(pool.resident_frames("a"), pool.resident_frames("b"));
}

TEST(SharedPoolTest, FetchMaterializesDataLessFrameOnHit) {
  auto t = MakeTable(2);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  // A residency probe installed the page; a later fetch of it is simply a
  // hit, and it serves the table's bytes.
  EXPECT_FALSE(pool.TouchPage("bp", 1));
  auto frame = pool.FetchPage(*t, 1);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(0, std::memcmp(*frame, t->PageData(1), 8 * 1024));
}

TEST(SharedPoolTest, TablesAliasByName) {
  // Catalog semantics: pages are identified by (table name, page number),
  // so two Table objects with one name share cached pages — what lets a
  // slot's tables share one pool across workload instances.
  auto t1 = MakeTable(2, "same");
  auto t2 = MakeTable(2, "same");
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  ASSERT_TRUE(pool.FetchPage(*t1, 0).ok());
  ASSERT_TRUE(pool.FetchPage(*t2, 0).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.resident_frames("same"), 1u);
}

TEST(PrewarmEdgeCaseTest, ZeroAndOverflowingFractionsClamp) {
  auto t = MakeTable(8);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t, 0.0);
  EXPECT_EQ(pool.resident_frames(), 0u);
  pool.Prewarm(*t, -3.0);  // clamped to 0
  EXPECT_EQ(pool.resident_frames(), 0u);
  pool.Prewarm(*t, 7.5);  // clamped to 1
  EXPECT_DOUBLE_EQ(pool.ResidentFraction(*t), 1.0);
  EXPECT_EQ(pool.resident_frames("bp"), 8u);
}

TEST(PrewarmEdgeCaseTest, RepeatedPrewarmNeverDoubleCounts) {
  auto t = MakeTable(6);
  BufferPool pool(16 * 8 * 1024, 8 * 1024, DiskModel{});
  pool.Prewarm(*t, 0.5);
  EXPECT_EQ(pool.resident_frames("bp"), 3u);
  pool.Prewarm(*t, 0.5);  // already resident: no installs, no growth
  EXPECT_EQ(pool.resident_frames("bp"), 3u);
  pool.Prewarm(*t, 1.0);  // tops up the missing half only
  EXPECT_EQ(pool.resident_frames("bp"), 6u);
  EXPECT_EQ(pool.resident_frames(), 6u);
}

TEST(PrewarmEdgeCaseTest, PrewarmIntoPressureEvictsOtherTables) {
  // Prewarm's installs obey the same eviction discipline as a scan: a
  // co-located table's frames go under install pressure, and the per-table
  // accounting tracks the handoff exactly.
  auto t = MakeTable(3, "warmed");
  BufferPool pool = BufferPool::SizedInFrames(4, 8 * 1024, DiskModel{});
  pool.ScanTable("other", 3);
  EXPECT_EQ(pool.resident_frames("other"), 3u);
  pool.Prewarm(*t);  // 3 installs, 1 free frame: 2 of "other"'s evicted
  EXPECT_EQ(pool.resident_frames("warmed"), 3u);
  EXPECT_EQ(pool.resident_frames("other"), 1u);
  EXPECT_EQ(pool.resident_frames(), 4u);
}

}  // namespace
}  // namespace dana::storage
