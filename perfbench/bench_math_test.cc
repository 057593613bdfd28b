// Self-tests for bench_math.h. Exits non-zero on the first failed check;
// run.py runs this binary before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_math_test: FAILED %s\n", what);
    ++g_failures;
  }
}

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  Expect(Percentile(hundred, 0.50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 0.95) == 95, "p95 of 1..100 is 95");
  Expect(Percentile(hundred, 1.00) == 100, "p100 is the maximum");
  Expect(Percentile(hundred, 0.001) == 1, "tiny q clamps to the minimum");
  Expect(Percentile({7}, 0.95) == 7, "single sample");
  Expect(Percentile({1, 2, 3, 4}, 0.5) == 2, "nearest rank, not interpolated");
  Expect(std::isnan(Percentile({}, 0.5)), "empty is NaN");
}

void TestMedian() {
  using perfbench::Median;
  Expect(Median({3, 1, 2}) == 2, "odd count");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even count averages the middle two");
  Expect(std::isnan(Median({})), "empty is NaN");
}

void TestRatio() {
  using perfbench::Ratio;
  Expect(Ratio(1, 4).value_or(-1) == 0.25, "plain ratio");
  Expect(Ratio(0, 4).value_or(-1) == 0.0, "zero numerator is a real 0");
  Expect(!Ratio(3, 0).has_value(), "empty base is unavailable");
}

void TestSelfMicros() {
  using perfbench::Interval;
  using perfbench::SelfMicros;
  Expect(SelfMicros({0, 100}, {}) == 100, "no children: all self");
  Expect(SelfMicros({0, 100}, {{10, 20}, {30, 60}}) == 60, "disjoint children");
  Expect(SelfMicros({0, 100}, {{10, 50}, {40, 70}}) == 40,
         "overlapping children counted once");
  Expect(SelfMicros({0, 100}, {{20, 30}, {10, 50}}) == 60,
         "nested child inside a sibling, any order");
  Expect(SelfMicros({50, 100}, {{0, 60}, {90, 200}}) == 30,
         "children clipped to the parent");
  Expect(SelfMicros({0, 100}, {{0, 100}}) == 0, "fully covered");
  Expect(SelfMicros({0, 100}, {{200, 300}}) == 100, "child outside parent");
  Expect(SelfMicros({5, 5}, {{0, 10}}) == 0, "empty parent");
}

}  // namespace

int main() {
  TestPercentile();
  TestMedian();
  TestRatio();
  TestSelfMicros();
  if (g_failures != 0) return EXIT_FAILURE;
  std::printf("bench_math_test: all checks passed\n");
  return EXIT_SUCCESS;
}
