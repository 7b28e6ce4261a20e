#include "redeem/em_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "seq/kmer.hpp"

namespace ngs::redeem {

RedeemModel::RedeemModel(const kspec::KSpectrum& spectrum,
                         const std::vector<sim::MisreadMatrix>& q,
                         RedeemParams params)
    : spectrum_(&spectrum),
      k_(spectrum.k()),
      params_(params),
      graph_(spectrum, params.dmax) {
  if (q.size() != static_cast<std::size_t>(k_)) {
    throw std::invalid_argument("RedeemModel: q must have k matrices");
  }
  const std::size_t n = spectrum.size();

  // CSR offsets mirroring the graph, with per-edge misread weights in
  // both directions, then row normalization over {self} u N(l).
  offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i + 1] = offsets_[i] + graph_.neighbors(i).size();
  }
  w_in_.resize(offsets_[n]);
  w_out_.resize(offsets_[n]);
  self_.resize(n);

  for (std::size_t l = 0; l < n; ++l) {
    const seq::KmerCode xl = spectrum.code_at(l);
    self_[l] = sim::kmer_misread_prob(q, xl, xl, k_);
    const auto nbrs = graph_.neighbors(l);
    double row = self_[l];
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const seq::KmerCode xm = spectrum.code_at(nbrs[e]);
      w_in_[offsets_[l] + e] = sim::kmer_misread_prob(q, xm, xl, k_);
      w_out_[offsets_[l] + e] = sim::kmer_misread_prob(q, xl, xm, k_);
      row += w_out_[offsets_[l] + e];
    }
    // Normalize the *outgoing* row of l (where can reads of x_l land).
    if (row > 0.0) {
      self_[l] /= row;
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        w_out_[offsets_[l] + e] /= row;
      }
    }
  }
  // w_in must be consistent with the normalized w_out of the neighbor:
  // pe(x_m -> x_l) normalized by m's row. Recompute w_in from the
  // neighbor's normalized outgoing weights.
  for (std::size_t l = 0; l < n; ++l) {
    const auto nbrs = graph_.neighbors(l);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      const std::size_t m = nbrs[e];
      // Find l in m's adjacency to fetch its normalized out-weight.
      const auto mn = graph_.neighbors(m);
      double w = 0.0;
      for (std::size_t f = 0; f < mn.size(); ++f) {
        if (mn[f] == l) {
          w = w_out_[offsets_[m] + f];
          break;
        }
      }
      w_in_[offsets_[l] + e] = w;
    }
  }

  run_em();
}

std::vector<double> RedeemModel::observed() const {
  std::vector<double> y(spectrum_->size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<double>(spectrum_->count_at(i));
  }
  return y;
}

void RedeemModel::run_em() {
  const std::size_t n = spectrum_->size();
  t_ = observed();
  std::vector<double> denom(n, 0.0);
  std::vector<double> t_next(n, 0.0);

  double prev_loglik = -std::numeric_limits<double>::infinity();
  for (iterations_ = 0; iterations_ < params_.max_iterations; ++iterations_) {
    // Denominators D_m = T_m self_m + sum_{l in N(m)} T_l pe(x_l -> x_m).
    loglik_ = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      double d = t_[m] * self_[m];
      const auto nbrs = graph_.neighbors(m);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        d += t_[nbrs[e]] * w_in_[offsets_[m] + e];
      }
      denom[m] = d;
      if (d > 0.0) {
        loglik_ += static_cast<double>(spectrum_->count_at(m)) * std::log(d);
      }
    }

    // Combined E+M: T_l <- sum over destinations m of
    //   Y_m * T_l pe(x_l -> x_m) / D_m.
    for (std::size_t l = 0; l < n; ++l) {
      double acc = 0.0;
      if (denom[l] > 0.0) {
        acc += static_cast<double>(spectrum_->count_at(l)) * self_[l] /
               denom[l];
      }
      const auto nbrs = graph_.neighbors(l);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const std::size_t m = nbrs[e];
        if (denom[m] > 0.0) {
          acc += static_cast<double>(spectrum_->count_at(m)) *
                 w_out_[offsets_[l] + e] / denom[m];
        }
      }
      t_next[l] = t_[l] * acc;
    }
    t_.swap(t_next);

    if (iterations_ > 0 &&
        std::abs(loglik_ - prev_loglik) <=
            params_.tolerance * (std::abs(prev_loglik) + 1.0)) {
      ++iterations_;
      break;
    }
    prev_loglik = loglik_;
  }
}

void RedeemModel::accumulate_posteriors(
    std::size_t l, std::vector<std::array<double, 4>>& acc,
    std::size_t offset) const {
  const seq::KmerCode xl = spectrum_->code_at(l);
  const auto nbrs = graph_.neighbors(l);
  // Total weight for normalization.
  double total = t_[l] * self_[l];
  for (std::size_t e = 0; e < nbrs.size(); ++e) {
    total += t_[nbrs[e]] * w_in_[offsets_[l] + e];
  }
  if (total <= 0.0) return;
  const double w_self = t_[l] * self_[l] / total;
  for (int t = 0; t < k_; ++t) {
    acc[offset + static_cast<std::size_t>(t)]
       [seq::kmer_base(xl, k_, t)] += w_self;
  }
  for (std::size_t e = 0; e < nbrs.size(); ++e) {
    const std::size_t m = nbrs[e];
    const double w = t_[m] * w_in_[offsets_[l] + e] / total;
    if (w <= 0.0) continue;
    const seq::KmerCode xm = spectrum_->code_at(m);
    for (int t = 0; t < k_; ++t) {
      acc[offset + static_cast<std::size_t>(t)]
         [seq::kmer_base(xm, k_, t)] += w;
    }
  }
}

}  // namespace ngs::redeem
