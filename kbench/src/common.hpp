#pragma once

// Small shared helpers for the benchmark: a monotonic clock in nanoseconds,
// order statistics, and a failure tally.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Quantile by linear interpolation between closest ranks (NaN when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Arithmetic mean (NaN when empty).
inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Mean of v less its lowest and highest twentieth (NaN when empty).
inline double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 20;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(cut),
                                  v.end() - static_cast<std::ptrdiff_t>(cut)));
}

/// Everything that went wrong in a run, by cause.  Each counts against
/// ok_frac; a mismatch also makes the command exit nonzero.
struct Failures {
  std::uint64_t failed = 0;      ///< an error frame (ok=false) or a bad reply
  std::uint64_t refused = 0;     ///< a 429 overload refusal
  std::uint64_t unanswered = 0;  ///< EOF or deadline before the reply came
  std::uint64_t mismatched = 0;  ///< reply differs from the reference bytes
  std::uint64_t campaign = 0;    ///< failed campaign tasks or bytes differ
  std::uint64_t reload = 0;      ///< a publish the source did not pick up

  [[nodiscard]] std::uint64_t total() const {
    return failed + refused + unanswered + mismatched + campaign + reload;
  }
  void add(const Failures& o) {
    failed += o.failed;
    refused += o.refused;
    unanswered += o.unanswered;
    mismatched += o.mismatched;
    campaign += o.campaign;
    reload += o.reload;
  }
};

}  // namespace kbench
