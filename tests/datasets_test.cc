#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "common/parallel.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"
#include "ml/workloads.h"

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

}  // namespace
}  // namespace dana::ml
