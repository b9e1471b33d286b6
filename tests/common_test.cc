#include <gtest/gtest.h>

#include "common/random.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace dana {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_EQ(Status::NotFound("missing").message(), "missing");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::Corruption("bad page").ToString(),
            "Corruption: bad page");
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    DANA_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto make = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::Internal("boom");
  };
  auto use = [&](bool ok) -> Result<int> {
    DANA_ASSIGN_OR_RETURN(int v, make(ok));
    return v + 1;
  };
  EXPECT_EQ(*use(true), 8);
  EXPECT_TRUE(use(false).status().IsInternal());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).ValueOrDie();
  EXPECT_EQ(*p, 5);
}

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

TEST(SimTimeTest, FactoriesAndAccessors) {
  EXPECT_DOUBLE_EQ(SimTime::Seconds(2.5).millis(), 2500.0);
  EXPECT_DOUBLE_EQ(SimTime::Millis(1.0).micros(), 1000.0);
  EXPECT_DOUBLE_EQ(SimTime::Micros(1.0).nanos(), 1000.0);
  EXPECT_DOUBLE_EQ(SimTime::Zero().seconds(), 0.0);
}

TEST(SimTimeTest, CyclesAtFrequency) {
  // 150 cycles at 150 MHz == 1 us.
  EXPECT_DOUBLE_EQ(SimTime::Cycles(150, 150e6).micros(), 1.0);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime a = SimTime::Millis(3);
  SimTime b = SimTime::Millis(1);
  EXPECT_DOUBLE_EQ((a + b).millis(), 4.0);
  EXPECT_DOUBLE_EQ((a - b).millis(), 2.0);
  EXPECT_DOUBLE_EQ((a * 2).millis(), 6.0);
  EXPECT_DOUBLE_EQ((a / 3).millis(), 1.0);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(SimTime::Max(a, b), a);
  EXPECT_EQ(SimTime::Min(a, b), b);
}

TEST(SimTimeTest, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::Nanos(5).ToString(), "5.0 ns");
  EXPECT_EQ(SimTime::Micros(12).ToString(), "12.000 us");
  EXPECT_EQ(SimTime::Millis(3.5).ToString(), "3.500 ms");
  EXPECT_EQ(SimTime::Seconds(1.25).ToString(), "1.250 s");
  EXPECT_EQ(SimTime::Seconds(3723).ToString(), "1h 2m 3s");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, DiscardEqualsThatManyDraws) {
  for (uint64_t n : {0ull, 1ull, 2ull, 1000ull, (1ull << 20) + 3}) {
    Rng jumped(17), stepped(17);
    jumped.Discard(n);
    for (uint64_t i = 0; i < n; ++i) stepped.Next64();
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(jumped.Next64(), stepped.Next64()) << "n " << n << " i " << i;
    }
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(GeoMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(StatsTest, MeanStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(Max({3, 1, 2}), 3.0);
  EXPECT_DOUBLE_EQ(Min({3, 1, 2}), 1.0);
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"alpha", "1"});
  tp.AddRow({"b", "22"});
  const std::string s = tp.ToString();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter tp({"a", "b", "c"});
  tp.AddRow({"x"});
  EXPECT_NE(tp.ToString().find("| x |"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Speedup(8.25), "8.2x");
}

}  // namespace
}  // namespace dana
