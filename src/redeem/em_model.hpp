#pragma once
// REDEEM's EM estimator (Sec. 3.2): given the observed kmer counts Y over
// the spectrum and misread probabilities pe(x_m, x_l) restricted to the
// dmax-neighborhood of observed kmers, estimate the expected number of
// read attempts T_l per kmer by maximum likelihood.
//
//   E-step: E[Y_lm | Y, T] = Y_m * T_l pe(x_l, x_m) / sum_{l'} T_l' pe(x_l', x_m)
//   M-step: T_l <- sum_m E[Y_lm]
//
// initialized at T = Y and iterated to log-likelihood convergence. The
// misread matrix rows are normalized over the observed neighborhood (the
// paper's sparse-Pe normalization).

#include <array>
#include <cstdint>
#include <vector>

#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "sim/error_model.hpp"

namespace ngs::redeem {

struct RedeemParams {
  int dmax = 1;
  int max_iterations = 100;
  double tolerance = 1e-6;  // relative log-likelihood change
};

class RedeemModel {
 public:
  /// `q` must hold k matrices (see kmer_error_matrices). Builds the
  /// misread graph and runs EM to convergence.
  RedeemModel(const kspec::KSpectrum& spectrum,
              const std::vector<sim::MisreadMatrix>& q, RedeemParams params);

  /// Estimated expected read attempts per spectrum kmer (same order as
  /// the spectrum).
  const std::vector<double>& estimates() const noexcept { return t_; }

  /// Observed counts Y as doubles (for baseline thresholding).
  std::vector<double> observed() const;

  int iterations_run() const noexcept { return iterations_; }
  double log_likelihood() const noexcept { return loglik_; }

  const kspec::KSpectrum& spectrum() const noexcept { return *spectrum_; }

  /// Adds the posterior distribution over the true base at each offset t
  /// of kmer l to acc[offset + t]: pi_t(b) proportional to
  /// sum_{m in N(l) u {l}, x_m[t]=b} T_m pe(x_m, x_l), normalized to one
  /// over the four bases (nothing is added when every weight is zero).
  /// The corrector sums these votes over the kmers covering a base.
  void accumulate_posteriors(std::size_t l,
                             std::vector<std::array<double, 4>>& acc,
                             std::size_t offset) const;

 private:
  void run_em();

  const kspec::KSpectrum* spectrum_;
  int k_;
  RedeemParams params_;
  kspec::HammingGraph graph_;
  std::vector<double> self_;    // normalized pe(x_l, x_l)
  std::vector<double> w_in_;    // per CSR entry (l, e->m): pe(x_m, x_l)
  std::vector<double> w_out_;   // per CSR entry (l, e->m): pe(x_l, x_m)
  std::vector<std::uint64_t> offsets_;  // CSR offsets copy for weights
  std::vector<double> t_;
  double loglik_ = 0.0;
  int iterations_ = 0;
};

}  // namespace ngs::redeem
