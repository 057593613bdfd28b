// Arithmetic the benchmark reports with: order statistics over repeated
// measurements, self time of a trace span, and guarded ratios. Kept free of
// library types so bench_math_test.cc can pin it down in isolation.
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]): the smallest sample such that at
/// least a q share of the samples are <= it. Always an observed value, so a
/// p95 over 256 requests is one real request's latency. NaN when empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

/// Median with the mean of the two middle samples for even counts (the
/// convention of Python's statistics.median). NaN when empty.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// num / den, or nullopt when den is 0: a ratio whose base is empty is
/// unavailable, never 0 or NaN.
inline std::optional<double> Ratio(double num, double den) {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

/// A closed-open time interval [start, end) in microseconds.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Length of `parent` minus the part of it covered by the union of
/// `children`. Children are clipped to the parent and may overlap each
/// other (a child's cover is counted once), so the result is never negative
/// and parent == self + covered exactly.
inline uint64_t SelfMicros(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  for (Interval& c : children) {
    c.start = std::clamp(c.start, parent.start, parent.end);
    c.end = std::clamp(c.end, parent.start, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t reach = parent.start;  // end of the union swept so far
  for (const Interval& c : children) {
    const uint64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.start) - covered;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
