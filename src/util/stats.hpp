#pragma once
// Numeric helpers: histograms, running moments, special functions
// (digamma, log-gamma wrappers), log-sum-exp, quantiles.
//
// REDEEM's mixture-model threshold inference (Sec. 3.7) needs digamma for
// the Gamma-component shape update; Reptile's data-driven parameter
// selection needs quantiles of quality-score and tile-count histograms.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace ngs::util {

/// Integer-binned histogram with quantile queries.
class Histogram {
 public:
  void add(std::int64_t value, std::uint64_t count = 1);

  std::uint64_t total() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  /// Smallest value v such that at least `q` fraction of mass is <= v.
  std::int64_t quantile(double q) const;

  const std::map<std::int64_t, std::uint64_t>& bins() const { return bins_; }

 private:
  std::map<std::int64_t, std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// Streaming mean/variance (Welford).
class RunningMoments {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Digamma function psi(x) = d/dx ln Gamma(x), for x > 0.
double digamma(double x);

/// ln Gamma(x); thin wrapper over std::lgamma for a stable call site.
double log_gamma(double x);

/// log(sum(exp(v))) computed stably.
double log_sum_exp(const std::vector<double>& log_values);

}  // namespace ngs::util
