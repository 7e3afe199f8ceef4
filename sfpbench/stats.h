// Order statistics used by every sfpbench metric.
//
// A timing is reported as its median plus a tail percentile. The tail
// follows one rule: report the highest percentile (up to the one asked
// for, usually p99) that still has at least kTailSamples samples
// beyond it, so a small sample never pretends to resolve p99.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace sfpbench {

/// Samples a tail percentile must leave beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Median; the mean of the two middle values for an even count, 0 for
/// no samples.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method),
/// so spreads printed here match the ones a Python check computes.
inline Quartiles QuartilesOf(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  double cut[3];
  const auto count = static_cast<long long>(n);
  for (long long i = 1; i <= 3; ++i) {
    // Python: m = n + 1; j = i*m // 4 clamped to [1, n-1];
    // delta = i*m - j*4 (after the clamp, so it may leave [0, 4]).
    const long long m = count + 1;
    const long long j = std::clamp(i * m / 4, 1LL, count - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

/// Nearest-rank percentile, q in [0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

/// The highest quantile <= `wanted` whose nearest-rank sample leaves at
/// least kTailSamples samples beyond it; never below the median.
inline double SupportedQuantile(std::size_t count, double wanted) {
  if (count <= kTailSamples) return 0.5;
  const double q = static_cast<double>(count - kTailSamples) / static_cast<double>(count);
  return std::max(0.5, std::min(wanted, q));
}

struct Tail {
  double quantile = 0.0;  // the percentile actually reported, in [0.5, wanted]
  double value = 0.0;
};

/// Tail percentile under the kTailSamples rule.
inline Tail TailOf(const std::vector<double>& values, double wanted = 0.99) {
  const double q = SupportedQuantile(values.size(), wanted);
  return {q, Percentile(values, q)};
}

/// Median over consecutive windows of `window` samples (in the order
/// taken) of `statistic` applied to each window. A remainder shorter
/// than a window joins the last full one; fewer samples than one window
/// form a single window. 0 for no samples. A host-noise burst moves the
/// statistic of the windows it covers, not the median over windows.
inline double WindowedMedian(const std::vector<double>& values, std::size_t window,
                             const std::function<double(std::span<const double>)>& statistic) {
  if (values.empty()) return 0.0;
  window = std::max<std::size_t>(window, 1);
  const std::size_t windows = std::max<std::size_t>(values.size() / window, 1);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * window;
    const std::size_t end = w + 1 == windows ? values.size() : begin + window;
    per_window.push_back(statistic(std::span<const double>(values).subspan(begin, end - begin)));
  }
  return Median(std::move(per_window));
}

}  // namespace sfpbench
