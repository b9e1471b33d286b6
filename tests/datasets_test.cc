#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "ml/workloads.h"
#include "storage/page_layout.h"
#include "storage/table.h"

namespace dana::ml {
namespace {

// ---------------------------------------------------------------------------
// The generated value stream, pinned. Each constant is the FNV-1a digest of
// every row's double bits, in row order, recorded from the sequential
// generator (one Rng drawn row after row). The block-parallel generator
// must reproduce it bit for bit whatever the worker count: every workload's
// loss and model digest (the bench/e2e goldens) folds these values in.
// ---------------------------------------------------------------------------

uint64_t RowsDigest(const Dataset& data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& row : data.rows) {
    for (double v : row) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

/// Checks the shape of `data` against `spec` and returns its digest.
uint64_t CheckedDigest(const DatasetSpec& spec, const Dataset& data) {
  const bool has_label = spec.kind != AlgoKind::kLowRankMF;
  EXPECT_EQ(data.feature_dims, spec.dims);
  EXPECT_EQ(data.has_label, has_label);
  EXPECT_EQ(data.rows.size(), spec.tuples);
  for (const auto& row : data.rows) {
    EXPECT_EQ(row.size(), spec.dims + (has_label ? 1u : 0u));
  }
  return RowsDigest(data);
}

struct WorkloadCase {
  const char* id;
  uint64_t digest;
};

void PrintTo(const WorkloadCase& c, std::ostream* os) { *os << c.id; }

class WorkloadDatasetGolden : public ::testing::TestWithParam<WorkloadCase> {
};

TEST_P(WorkloadDatasetGolden, RowsAreBitExact) {
  const Workload* w = FindWorkload(GetParam().id);
  ASSERT_NE(w, nullptr);
  const DatasetSpec spec = w->dataset_spec();
  const uint64_t h = CheckedDigest(spec, GenerateDataset(spec));
  EXPECT_EQ(h, GetParam().digest) << "got 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDatasetGolden,
    ::testing::Values(WorkloadCase{"rs_lr", 0xb294c7b55664e717ull},
                      WorkloadCase{"wlan", 0xb9971dc113107ad2ull},
                      WorkloadCase{"rs_svm", 0x637b62c0f0755c79ull},
                      WorkloadCase{"netflix", 0x5062bfe16cdce71aull},
                      WorkloadCase{"patient", 0x924c9909bb1f03c8ull},
                      WorkloadCase{"blog", 0x11b61f2cfbc2c4a4ull},
                      WorkloadCase{"sn_logistic", 0x615926281282118cull},
                      WorkloadCase{"sn_svm", 0x5c06ae7579aea5c6ull},
                      WorkloadCase{"sn_lrmf", 0x3b31bde81ad9e3baull},
                      WorkloadCase{"sn_linear", 0x8e234f4d3407566dull},
                      WorkloadCase{"se_logistic", 0xc2ba0119046ba7bcull},
                      WorkloadCase{"se_svm", 0x0f990ee3a169007aull},
                      WorkloadCase{"se_lrmf", 0x47bd37d75f99f50full},
                      WorkloadCase{"se_linear", 0xcc2b25903327f2c5ull}));

TEST(WorkloadDatasetGolden, CoversTheRegistry) {
  EXPECT_EQ(AllWorkloads().size(), 14u);
}

// ---------------------------------------------------------------------------
// Edge shapes, per algorithm: no rows, one row, 2000 rows of about 100
// values (four of the generator's blocks of 2^16 values, the last one
// partial), and 45000 rows (about 69 blocks, the last one partial, so each
// thread fills several). Each is generated on every CPU of the mask and on
// one.
// ---------------------------------------------------------------------------

struct EdgeCase {
  AlgoKind kind;
  uint64_t tuples;
  uint64_t digest;
};

void PrintTo(const EdgeCase& c, std::ostream* os) {
  *os << AlgoKindName(c.kind) << " tuples " << c.tuples;
}

DatasetSpec EdgeSpec(const EdgeCase& c) {
  DatasetSpec spec;
  spec.kind = c.kind;
  spec.dims = 100;
  spec.rank = 3;
  spec.tuples = c.tuples;
  spec.seed = 29;
  return spec;
}

class EdgeDatasetGolden : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(EdgeDatasetGolden, RowsAreBitExact) {
  const DatasetSpec spec = EdgeSpec(GetParam());
  const uint64_t h = CheckedDigest(spec, GenerateDataset(spec));
  EXPECT_EQ(h, GetParam().digest) << "got 0x" << std::hex << h;
}

TEST_P(EdgeDatasetGolden, OneThreadWritesTheSameRows) {
  const DatasetSpec spec = EdgeSpec(GetParam());
  // While this thread holds the worker team, every other lease has width 1,
  // so GenerateDataset runs on this thread alone.
  const TeamLease held(2);
  ASSERT_EQ(TeamLease(2).width(), 1u);
  const uint64_t h = CheckedDigest(spec, GenerateDataset(spec));
  EXPECT_EQ(h, GetParam().digest) << "got 0x" << std::hex << h;
}

constexpr uint64_t kEmpty = 0xcbf29ce484222325ull;

INSTANTIATE_TEST_SUITE_P(
    Shapes, EdgeDatasetGolden,
    ::testing::Values(
        EdgeCase{AlgoKind::kLinearRegression, 0, kEmpty},
        EdgeCase{AlgoKind::kLinearRegression, 1, 0xc7f1ee90cd97a547ull},
        EdgeCase{AlgoKind::kLinearRegression, 2000, 0xd93a302b87e7ea7full},
        EdgeCase{AlgoKind::kLinearRegression, 45000, 0xaa506f80c2cbcffcull},
        EdgeCase{AlgoKind::kLogisticRegression, 0, kEmpty},
        EdgeCase{AlgoKind::kLogisticRegression, 1, 0xfb515c45532810d5ull},
        EdgeCase{AlgoKind::kLogisticRegression, 2000, 0x1ccf42f676f38260ull},
        EdgeCase{AlgoKind::kLogisticRegression, 45000, 0x4bd014bc1dc50d2dull},
        EdgeCase{AlgoKind::kSvm, 0, kEmpty},
        EdgeCase{AlgoKind::kSvm, 1, 0xf9676d45518756c8ull},
        EdgeCase{AlgoKind::kSvm, 2000, 0x4574c2d2e0b6ce77ull},
        EdgeCase{AlgoKind::kSvm, 45000, 0xd1ad27a865bfc5ccull},
        EdgeCase{AlgoKind::kLowRankMF, 0, kEmpty},
        EdgeCase{AlgoKind::kLowRankMF, 1, 0x39c98de880514751ull},
        EdgeCase{AlgoKind::kLowRankMF, 2000, 0x1d32a964ab40406cull},
        EdgeCase{AlgoKind::kLowRankMF, 45000, 0x67b4cefeb341b028ull}));

// ---------------------------------------------------------------------------
// The heap pages, pinned. Each constant is the FNV-1a digest of every page
// image of BuildTable(GenerateDataset(spec)) (32 KB pages), in page order,
// recorded from the row-by-row build (one AppendRow per row, on one
// thread). Every Strider walk and every functional training run reads these
// bytes, so however the table is loaded they must not move. The digest
// folds a page's 64-bit words, a multiply per word rather than per byte:
// the S/E tables hold about 200 MB of pages each.
// ---------------------------------------------------------------------------

uint64_t PagesDigest(const storage::Table& table) {
  uint64_t h = 0xcbf29ce484222325ull;
  const uint32_t page_size = table.layout().page_size;
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    const uint8_t* data = table.PageData(p);
    for (uint32_t i = 0; i + 8 <= page_size; i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, data + i, sizeof(word));
      h ^= word;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Builds `data`'s table and returns its page digest, checking its size.
uint64_t BuiltPagesDigest(const Dataset& data) {
  auto table = BuildTable("t", data, storage::PageLayout{});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) return 0;
  EXPECT_EQ((*table)->num_tuples(), data.rows.size());
  return PagesDigest(**table);
}

class WorkloadTableGolden : public ::testing::TestWithParam<WorkloadCase> {
};

// One dataset feeds both builds: generating an S/E set takes longer than
// building its table.
TEST_P(WorkloadTableGolden, TablePagesAreBitExact) {
  const Workload* w = FindWorkload(GetParam().id);
  ASSERT_NE(w, nullptr);
  const Dataset data = GenerateDataset(w->dataset_spec());
  const uint64_t h = BuiltPagesDigest(data);
  EXPECT_EQ(h, GetParam().digest) << "team: got 0x" << std::hex << h;
  // While this thread holds the worker team, every other lease has width 1,
  // so BuildTable runs on this thread alone.
  const TeamLease held(2);
  ASSERT_EQ(TeamLease(2).width(), 1u);
  const uint64_t one = BuiltPagesDigest(data);
  EXPECT_EQ(one, GetParam().digest) << "one thread: got 0x" << std::hex << one;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadTableGolden,
    ::testing::Values(WorkloadCase{"rs_lr", 0x6b18a1caab2d2227ull},
                      WorkloadCase{"wlan", 0xd643ccd4228d7101ull},
                      WorkloadCase{"rs_svm", 0x4cbd59b9bea145d4ull},
                      WorkloadCase{"netflix", 0x17084dddbfb68297ull},
                      WorkloadCase{"patient", 0x6ee716ffbad83f07ull},
                      WorkloadCase{"blog", 0x46a0346408f913efull},
                      WorkloadCase{"sn_logistic", 0x7b36b420a49c6fffull},
                      WorkloadCase{"sn_svm", 0x5594b19cd97b9b5bull},
                      WorkloadCase{"sn_lrmf", 0xb6da6c0f77c1ff73ull},
                      WorkloadCase{"sn_linear", 0xd6ebd3dcad07789aull},
                      WorkloadCase{"se_logistic", 0x128d6fbda5ccd383ull},
                      WorkloadCase{"se_svm", 0x830ff10e85e1ed80ull},
                      WorkloadCase{"se_lrmf", 0x222ca263df5d0ba2ull},
                      WorkloadCase{"se_linear", 0x11061b0fb2cf6163ull}));

// ---------------------------------------------------------------------------
// Edge tables: linear-regression rows of 100 features and a label (404
// payload bytes, kRowsPerPage to a 32 KB page), on every CPU of the mask
// and on one.
// ---------------------------------------------------------------------------

constexpr uint64_t kRowsPerPage = 75;

Dataset EdgeRows(uint64_t tuples) {
  return GenerateDataset(
      EdgeSpec(EdgeCase{AlgoKind::kLinearRegression, tuples, 0}));
}

struct TableCase {
  const char* name;
  uint64_t tuples;
  uint64_t pages;
  uint64_t digest;
};

void PrintTo(const TableCase& c, std::ostream* os) { *os << c.name; }

class EdgeTableGolden : public ::testing::TestWithParam<TableCase> {
 protected:
  void Check(const Dataset& data) const {
    auto table = BuildTable("t", data, storage::PageLayout{});
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ((*table)->num_tuples(), GetParam().tuples);
    EXPECT_EQ((*table)->num_pages(), GetParam().pages);
    const uint64_t h = PagesDigest(**table);
    EXPECT_EQ(h, GetParam().digest) << "got 0x" << std::hex << h;
  }
};

TEST_P(EdgeTableGolden, PagesAreBitExact) {
  Check(EdgeRows(GetParam().tuples));
}

TEST_P(EdgeTableGolden, OneThreadBuildsTheSamePages) {
  const Dataset data = EdgeRows(GetParam().tuples);
  const TeamLease held(2);
  ASSERT_EQ(TeamLease(2).width(), 1u);
  Check(data);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EdgeTableGolden,
    ::testing::Values(
        TableCase{"no_rows", 0, 0, kEmpty},
        TableCase{"one_row", 1, 1, 0xe5ca129a98e866bbull},
        TableCase{"one_full_page", kRowsPerPage, 1, 0x0fc0d547848d922cull},
        TableCase{"full_pages_and_a_partial_one", 4 * kRowsPerPage + 17, 5,
                  0xc35309e9ad740e3cull}));

TEST(EdgeTable, RowsPerPage) {
  auto table = BuildTable("t", EdgeRows(kRowsPerPage + 1),
                          storage::PageLayout{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->num_pages(), 2u);
  EXPECT_EQ((*table)->TuplesOnPage(0), kRowsPerPage);
  EXPECT_EQ((*table)->TuplesOnPage(1), 1u);
}

/// The table of the first `head` rows of `data`.
std::unique_ptr<storage::Table> HeadTable(const Dataset& data,
                                          uint64_t head) {
  Dataset rows = data;
  rows.rows.resize(head);
  auto table = BuildTable("t", rows, storage::PageLayout{});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(table).ValueOrDie() : nullptr;
}

TEST(EdgeTable, FillingAPartlyFilledTailPageGivesTheSamePages) {
  // 30 rows leave the first page partly filled; the rest go on it first.
  const Dataset data = EdgeRows(4 * kRowsPerPage + 17);
  const auto table = HeadTable(data, 30);
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->num_pages(), 1u);
  ASSERT_TRUE(table->AppendRows(std::span(data.rows).subspan(30)).ok());
  EXPECT_EQ(table->num_tuples(), data.rows.size());
  EXPECT_EQ(PagesDigest(*table), BuiltPagesDigest(data));
}

TEST(EdgeTable, ARowOfTheWrongWidthFailsTheBuild) {
  Dataset data = EdgeRows(4 * kRowsPerPage + 17);
  data.rows[200].pop_back();
  auto table = BuildTable("t", data, storage::PageLayout{});
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsInvalidArgument());
  EXPECT_EQ(table.status().message(),
            "row has 100 values, schema has 101 columns");
}

TEST(EdgeTable, ARowOfTheWrongWidthLeavesTheTableAsItWas) {
  Dataset data = EdgeRows(4 * kRowsPerPage + 17);
  data.rows[200].pop_back();
  const auto table = HeadTable(data, 30);
  ASSERT_NE(table, nullptr);
  const uint64_t before = PagesDigest(*table);
  const dana::Status bulk =
      table->AppendRows(std::span(data.rows).subspan(30));
  EXPECT_TRUE(bulk.IsInvalidArgument());
  EXPECT_EQ(bulk.message(), "row has 100 values, schema has 101 columns");
  EXPECT_EQ(table->num_tuples(), 30u);
  EXPECT_EQ(table->num_pages(), 1u);
  EXPECT_EQ(PagesDigest(*table), before);
}

}  // namespace
}  // namespace dana::ml
