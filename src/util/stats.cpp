#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ngs::util {

void Histogram::add(std::int64_t value, std::uint64_t count) {
  bins_[value] += count;
  total_ += count;
}

std::int64_t Histogram::quantile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t cum = 0;
  for (const auto& [value, count] : bins_) {
    cum += count;
    if (cum >= target) return value;
  }
  return bins_.rbegin()->first;
}

double digamma(double x) {
  // Recurrence to push x above 6, then asymptotic expansion.
  double result = 0.0;
  while (x < 10.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0));
  return result;
}

double log_gamma(double x) { return std::lgamma(x); }

double log_sum_exp(const std::vector<double>& log_values) {
  if (log_values.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(log_values.begin(), log_values.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double v : log_values) sum += std::exp(v - m);
  return m + std::log(sum);
}

}  // namespace ngs::util
