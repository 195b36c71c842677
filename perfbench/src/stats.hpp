// Order statistics for the benchmark's reports. Header-only so the
// self-test links it without the VM.
//
// Conventions:
//   * median / quartiles follow Python's statistics.quantiles(n=4) with its
//     default "exclusive" method, so a spread the benchmark prints is the
//     same number a script computes from the values it printed.
//   * a tail percentile is reported only when at least kMinBeyond samples
//     lie beyond it; with fewer the tail is one or two outliers and the
//     value is refused (std::nullopt) rather than reported.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Q1, Q2, Q3 exactly as statistics.quantiles(data, n=4) computes them
/// (method="exclusive"). Needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// (Q3 - Q1) / Q2: the run-to-run spread the benchmark's bounds are set
/// against.
inline double iqr_share(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return q[1] == 0 ? 0 : (q[2] - q[0]) / q[1];
}

/// 1-based nearest rank of percentile p among n samples: ceil(p * n / 100),
/// computed so that exact products (99 * 1000 / 100) do not round up.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Nearest-rank percentile p (0 < p < 100) of `v`, or nullopt when fewer
/// than kMinBeyond samples lie above the rank (the tail is not resolved).
inline std::optional<double> percentile(std::vector<double> v, double p) {
  if (v.empty() || p <= 0 || p >= 100) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = nearest_rank(p, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  return v[rank - 1];
}

/// Nearest-rank percentile p of `v` without the tail rule: for the low
/// quantiles the benchmark scores timings with (p10 across fresh VMs),
/// where most samples lie beyond the rank.
inline double low_quantile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

inline double minimum(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("minimum of no samples");
  return *std::min_element(v.begin(), v.end());
}

/// Smallest sample count at which percentile(v, p) resolves.
inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (true) {
    if (n - nearest_rank(p, n) >= kMinBeyond) return n;
    ++n;
  }
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
