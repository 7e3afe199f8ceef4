// Tests of the sfpbench order statistics. Expected quartiles were
// produced by Python's statistics.quantiles(values, n=4), the rule the
// benchmark's spread checks use.
#include "stats.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace sfpbench {
namespace {

TEST(SfpBenchStatsTest, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Median({9.0, 1.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median({8.0, 2.0, 6.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 1.0, 7.0, 7.0}), 4.0);
}

TEST(SfpBenchStatsTest, QuartilesMatchPythonExclusiveMethod) {
  const auto ten = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  // Two points: the clamp lets the interpolation weight leave [0, 4].
  const auto two = QuartilesOf({3.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.q2, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);

  const auto five = QuartilesOf({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);

  const auto seven = QuartilesOf({0.5, 7.25, 1.5, 9.0, 2.0, 4.75, 3.0});
  EXPECT_DOUBLE_EQ(seven.q1, 1.5);
  EXPECT_DOUBLE_EQ(seven.q2, 3.0);
  EXPECT_DOUBLE_EQ(seven.q3, 7.25);
}

TEST(SfpBenchStatsTest, NearestRankPercentile) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);  // 1..100
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(SfpBenchStatsTest, TailKeepsTenSamplesBeyondIt) {
  // Enough samples: p99 itself leaves exactly 10 beyond it.
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(5000, 0.99), 0.99);
  // Too few for p99: fall back to the highest percentile with 10 beyond.
  EXPECT_DOUBLE_EQ(SupportedQuantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(SupportedQuantile(64, 0.99), 54.0 / 64.0);
  // Never below the median.
  EXPECT_DOUBLE_EQ(SupportedQuantile(12, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(3, 0.99), 0.5);

  // The reported sample really has >= 10 samples beyond it.
  for (const std::size_t n : {11u, 20u, 64u, 199u, 200u, 1000u, 1234u}) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    const Tail tail = TailOf(values);
    const auto beyond = static_cast<double>(n) - tail.value;  // values are 1..n
    if (tail.quantile > 0.5) {
      EXPECT_GE(beyond, 10.0) << "n=" << n;
    }
    EXPECT_LE(tail.quantile, 0.99);
  }
}

TEST(SfpBenchStatsTest, DeeperTailNeedsTenThousandSamples) {
  // p99.9 keeps 10 samples beyond it from 10000 samples on.
  EXPECT_DOUBLE_EQ(SupportedQuantile(10000, 0.999), 0.999);
  EXPECT_DOUBLE_EQ(SupportedQuantile(27000, 0.999), 0.999);
  EXPECT_DOUBLE_EQ(SupportedQuantile(5000, 0.999), 0.998);

  std::vector<double> values(20000);
  std::iota(values.begin(), values.end(), 1.0);  // 1..20000
  const Tail tail = TailOf(values, 0.999);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.999);
  EXPECT_DOUBLE_EQ(tail.value, 19980.0);
}

TEST(SfpBenchStatsTest, WindowedMedianIgnoresABurstInFewWindows) {
  const auto max_of = [](std::span<const double> w) { return *std::max_element(w.begin(), w.end()); };
  const auto size_of = [](std::span<const double> w) { return static_cast<double>(w.size()); };
  EXPECT_DOUBLE_EQ(WindowedMedian({}, 4, max_of), 0.0);

  // Five windows of 4; one burst sample lands in window 1 only.
  std::vector<double> values(20, 1.0);
  values[5] = 100.0;
  EXPECT_DOUBLE_EQ(WindowedMedian(values, 4, max_of), 1.0);
  // The same burst in three of five windows decides the median.
  values[9] = 100.0;
  values[13] = 100.0;
  EXPECT_DOUBLE_EQ(WindowedMedian(values, 4, max_of), 100.0);

  // A short remainder joins the last full window: 10 = 4 + (4 + 2).
  EXPECT_DOUBLE_EQ(WindowedMedian(std::vector<double>(10, 0.0), 4, size_of), 5.0);
  // Fewer samples than a window form one window.
  EXPECT_DOUBLE_EQ(WindowedMedian(std::vector<double>(3, 0.0), 4, size_of), 3.0);
}

}  // namespace
}  // namespace sfpbench
