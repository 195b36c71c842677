// Self-checks of the benchmark's statistics helpers (src/stats.hpp). The
// expected quartiles are what Python's statistics.quantiles(data, n=4)
// returns for the same data, so the spreads the benchmark prints agree with
// the ones a script computes from its output.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

}  // namespace

int main() {
  using namespace perfbench;

  expect(near(median({3, 1, 2}), 2), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
         "quartiles of 1..10 match statistics.quantiles");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2, 1});
  expect(near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25),
         "quartiles of two samples extrapolate like statistics.quantiles");
  // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
  const auto q3 = quartiles({1, 2, 3, 4, 100});
  expect(near(q3[0], 1.5) && near(q3[1], 3.0) && near(q3[2], 52.0),
         "quartiles with an outlier");
  expect(near(iqr_share({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), (8.25 - 2.75) / 5.5),
         "IQR share is (Q3 - Q1) / Q2");
  expect(near(iqr_share({5, 5, 5, 5}), 0), "IQR share of constant samples");

  // Tail percentiles need kMinBeyond samples beyond the rank.
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  expect(!percentile(v, 99).has_value(), "p99 refused with 999 samples");
  v.push_back(1000);
  const auto p99 = percentile(v, 99);
  expect(p99.has_value() && near(*p99, 990),
         "p99 of 1..1000 is the 990th value, 10 samples beyond it");
  expect(min_samples_for(99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(50) == 20, "p50 needs 20 samples");
  const auto p50 = percentile(std::vector<double>(20, 1.0), 50);
  expect(p50.has_value() && near(*p50, 1.0), "p50 of 20 samples resolves");
  expect(!percentile(std::vector<double>(19, 1.0), 50).has_value(),
         "p50 refused with 19 samples");
  expect(!percentile({}, 50).has_value(), "no percentile of nothing");

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
