// Tests of the benchmark's own arithmetic (driver/stats.h): percentiles and
// their sample counts, due-time latency under a late generator, outcome
// accounting, geometric-mean regret and the precision contract.

#include "stats.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankWithSamplesBeyond) {
  const Percentile p50 = PercentileOf(OneTo(100), 0.5);
  EXPECT_EQ(50.0, p50.value);
  EXPECT_EQ(100u, p50.samples);
  EXPECT_EQ(50u, p50.beyond);
  // 0.9 * 100 is not exactly 90 in binary; the rank must still be 90.
  const Percentile p90 = PercentileOf(OneTo(100), 0.9);
  EXPECT_EQ(90.0, p90.value);
  EXPECT_EQ(10u, p90.beyond);
  const Percentile p99 = PercentileOf(OneTo(100), 0.99);
  EXPECT_EQ(99.0, p99.value);
  EXPECT_EQ(1u, p99.beyond);
  EXPECT_LT(p99.beyond, kMinBeyond);  // too few samples to report a p99
}

TEST(Percentile, UnsortedInputAndEdges) {
  EXPECT_EQ(3.0, PercentileOf({5.0, 1.0, 3.0, 4.0, 2.0}, 0.5).value);
  EXPECT_EQ(5.0, PercentileOf({5.0, 1.0, 3.0, 4.0, 2.0}, 1.0).value);
  EXPECT_EQ(0u, PercentileOf({5.0, 1.0}, 1.0).beyond);
  const Percentile empty = PercentileOf({}, 0.5);
  EXPECT_EQ(0u, empty.samples);
  EXPECT_EQ(0.0, empty.value);
  EXPECT_EQ(7.0, PercentileOf({7.0}, 0.01).value);
}

TEST(Windows, MedianOverSlicesIgnoresOneBadSlice) {
  // Three 1-second slices of 100 answers each; the middle slice is stalled.
  std::vector<int64_t> done;
  std::vector<double> lat;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      done.push_back(w * 1'000'000'000LL + i * 10'000'000LL);
      lat.push_back(w == 1 ? 5000.0 + i : 100.0 + i);
    }
  }
  const WindowMedians m = MediansOverWindows(done, lat, 0, 3'000'000'000LL, 3);
  EXPECT_DOUBLE_EQ(100.0, m.throughput);
  EXPECT_DOUBLE_EQ(149.0, m.p50);  // slice p50s: 149, 5049, 149
  EXPECT_DOUBLE_EQ(189.0, m.p90);
  EXPECT_EQ(10u, m.min_beyond_p90);
}

TEST(Windows, AnswersAtTheEndLandInTheLastSlice) {
  const WindowMedians m =
      MediansOverWindows({0, 1000, 2000}, {1.0, 2.0, 3.0}, 0, 2000, 2);
  // Slices: [0, 1000) holds 1; [1000, 2000] holds 2 and 3.
  EXPECT_DOUBLE_EQ(1.5e6, m.throughput);  // median of 1e6 and 2e6 per second
  EXPECT_EQ(0u, m.min_beyond_p90);
  EXPECT_EQ(2.0, MedianOf({3.0, 1.0, 2.0}));
  EXPECT_EQ(2.5, MedianOf({4.0, 1.0, 2.0, 3.0}));
}

TEST(DueTime, OnTimeGenerator) {
  const DueTiming t = DueTimeLatency(1'000'000, 1'000'000, 1'300'000);
  EXPECT_DOUBLE_EQ(300.0, t.latency_us);
  EXPECT_DOUBLE_EQ(0.0, t.lag_us);
}

TEST(DueTime, LateGeneratorCountsFromTheDueTime) {
  // Due at 1 ms, sent 200 us late, answered 300 us after sending: the
  // client saw 500 us, of which the generator's lateness was 200 us.
  const DueTiming t = DueTimeLatency(1'000'000, 1'200'000, 1'500'000);
  EXPECT_DOUBLE_EQ(500.0, t.latency_us);
  EXPECT_DOUBLE_EQ(200.0, t.lag_us);
}

TEST(DueTime, EarlySendIsNoLag) {
  const DueTiming t = DueTimeLatency(1'000'000, 999'000, 1'100'000);
  EXPECT_DOUBLE_EQ(100.0, t.latency_us);
  EXPECT_DOUBLE_EQ(0.0, t.lag_us);
}

TEST(Accounting, RefusalsAndMismatchesCountAgainstBothShares) {
  Accounting a;
  a.Add(Outcome::kCorrect, 100.0, 1000.0);
  a.Add(Outcome::kCorrect, 2000.0, 1000.0);  // correct but too slow
  a.Add(Outcome::kRefused, 10.0, 1000.0);
  a.Add(Outcome::kMismatch, 100.0, 1000.0);  // fast but wrong
  a.Add(Outcome::kDeadlineMissed, 900.0, 1000.0);
  EXPECT_EQ(5u, a.attempted);
  EXPECT_EQ(2u, a.correct);
  EXPECT_EQ(3u, a.failed());
  EXPECT_EQ(1u, a.refused);
  EXPECT_EQ(1u, a.mismatched);
  EXPECT_EQ(1u, a.deadline_missed);
  EXPECT_DOUBLE_EQ(2.0 / 5.0, a.OkShare());
  EXPECT_DOUBLE_EQ(1.0 / 5.0, a.GoodputShare());
}

TEST(Accounting, LimitIsInclusiveAndEmptyIsZero) {
  Accounting a;
  EXPECT_EQ(0.0, a.OkShare());
  EXPECT_EQ(0.0, a.GoodputShare());
  a.Add(Outcome::kCorrect, 1000.0, 1000.0);
  EXPECT_EQ(1.0, a.GoodputShare());
}

TEST(Regret, GeometricMean) {
  // Regrets 1, 4 and 2: geometric mean (1 * 4 * 2)^(1/3) = 2.
  const double g = GeometricMeanRegret({10.0, 8.0, 6.0}, {10.0, 2.0, 3.0});
  EXPECT_NEAR(2.0, g, 1e-12);
  EXPECT_EQ(1.0, GeometricMeanRegret({5.0}, {5.0}));
  EXPECT_EQ(1.0, GeometricMeanRegret({}, {}));
}

TEST(Regret, ArgminTakesFirstFiniteMinimum) {
  EXPECT_EQ(1u, ArgminScore({3.0, 1.0, 1.0, 2.0}));
  EXPECT_EQ(2u, ArgminScore({NAN, INFINITY, 5.0}));
}

TEST(QError, Symmetric) {
  EXPECT_DOUBLE_EQ(2.0, QError(2.0, 1.0));
  EXPECT_DOUBLE_EQ(2.0, QError(1.0, 2.0));
  EXPECT_DOUBLE_EQ(1.0, QError(3.0, 3.0));
}

TEST(Contract, StudentAnswersMustBeBitIdentical) {
  // tiered != teacher: the student answered.
  EXPECT_TRUE(WithinContract(5.0, 5.0, 5.5, false));
  EXPECT_FALSE(WithinContract(std::nextafter(5.0, 6.0), 5.0, 5.5, false));
}

TEST(Contract, EscalatedAnswersWithinThePrecisionBudget) {
  // tiered == teacher: the teacher answered.
  EXPECT_TRUE(WithinContract(5.0 * 1.0005, 5.0, 5.0, false));
  EXPECT_FALSE(WithinContract(5.0 * 1.002, 5.0, 5.0, false));
  EXPECT_FALSE(WithinContract(0.0, 5.0, 5.0, false));
  // f64: bit-identical only.
  EXPECT_TRUE(WithinContract(5.0, 5.0, 5.0, true));
  EXPECT_FALSE(WithinContract(5.0 * 1.0005, 5.0, 5.0, true));
}

}  // namespace
}  // namespace perfbench
