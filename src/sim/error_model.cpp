#include "sim/error_model.hpp"

#include <cmath>

#include "seq/kmer.hpp"

namespace ngs::sim {
namespace {

MisreadMatrix identity_with_error(double pe,
                                  const std::array<double, 12>& off_weights) {
  // off_weights: for each true base a, three relative weights for the
  // three substitution targets in code order (skipping a itself).
  MisreadMatrix m{};
  std::size_t w = 0;
  for (int a = 0; a < 4; ++a) {
    double total = 0.0;
    std::array<double, 4> row{};
    for (int b = 0; b < 4; ++b) {
      if (b == a) continue;
      row[static_cast<std::size_t>(b)] = off_weights[w++];
      total += row[static_cast<std::size_t>(b)];
    }
    for (int b = 0; b < 4; ++b) {
      auto& cell = m[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (b == a) {
        cell = 1.0 - pe;
      } else {
        cell = pe * row[static_cast<std::size_t>(b)] / total;
      }
    }
  }
  return m;
}

/// Exponential 5'->3' ramp with the given fold change, normalized so the
/// mean of rate(pos) over positions equals avg_error.
std::vector<double> ramp_rates(std::size_t read_length, double avg_error,
                               double fold) {
  std::vector<double> rates(read_length);
  double sum = 0.0;
  for (std::size_t i = 0; i < read_length; ++i) {
    const double x =
        read_length <= 1
            ? 0.0
            : static_cast<double>(i) / static_cast<double>(read_length - 1);
    rates[i] = std::exp(x * std::log(fold));
    sum += rates[i];
  }
  const double scale = avg_error * static_cast<double>(read_length) / sum;
  for (auto& r : rates) r = std::min(0.4, r * scale);
  return rates;
}

}  // namespace

ErrorModel ErrorModel::uniform(std::size_t read_length, double pe) {
  const std::array<double, 12> flat{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<MisreadMatrix> ms(read_length, identity_with_error(pe, flat));
  return ErrorModel(std::move(ms));
}

ErrorModel ErrorModel::illumina(std::size_t read_length, double avg_error) {
  // Substitution preferences echoing Table 3.2 (E. coli column): from A
  // the dominant miscall is C; from G it is T; C and T miscall mildly.
  // Order per row (skipping the diagonal): A:{C,G,T} C:{A,G,T} G:{A,C,T}
  // T:{A,C,G}.
  const std::array<double, 12> weights{
      6.3, 1.8, 2.3,   // A -> C,G,T
      1.5, 1.0, 1.5,   // C -> A,G,T
      0.5, 1.7, 5.3,   // G -> A,C,T
      0.5, 1.9, 1.8};  // T -> A,C,G
  const auto rates = ramp_rates(read_length, avg_error, 6.0);
  std::vector<MisreadMatrix> ms;
  ms.reserve(read_length);
  for (double r : rates) ms.push_back(identity_with_error(r, weights));
  return ErrorModel(std::move(ms));
}

ErrorModel ErrorModel::illumina_alternate(std::size_t read_length,
                                          double avg_error) {
  // A. sp. ADP1-like skew (Table 3.2 right): much stronger A->C and G->T.
  const std::array<double, 12> weights{
      25.3, 1.9, 11.0,  // A -> C,G,T
      2.0, 0.8, 4.0,    // C -> A,G,T
      1.2, 3.0, 19.8,   // G -> A,C,T
      0.9, 1.8, 1.3};   // T -> A,C,G
  const auto rates = ramp_rates(read_length, avg_error, 9.0);
  std::vector<MisreadMatrix> ms;
  ms.reserve(read_length);
  for (double r : rates) ms.push_back(identity_with_error(r, weights));
  return ErrorModel(std::move(ms));
}

ErrorModel ErrorModel::from_counts(
    const std::vector<std::array<std::array<std::uint64_t, 4>, 4>>& counts,
    double fallback_error) {
  std::vector<MisreadMatrix> ms(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (int a = 0; a < 4; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      std::uint64_t row_total = 0;
      for (int b = 0; b < 4; ++b) {
        row_total += counts[i][ia][static_cast<std::size_t>(b)];
      }
      if (row_total == 0) {
        for (int b = 0; b < 4; ++b) {
          ms[i][ia][static_cast<std::size_t>(b)] =
              (a == b) ? 1.0 - fallback_error : fallback_error / 3.0;
        }
        continue;
      }
      for (int b = 0; b < 4; ++b) {
        // Add-one smoothing so unobserved substitutions keep a
        // nonvanishing misread probability (needed by REDEEM's EM).
        ms[i][ia][static_cast<std::size_t>(b)] =
            (static_cast<double>(counts[i][ia][static_cast<std::size_t>(b)]) +
             0.25) /
            (static_cast<double>(row_total) + 1.0);
      }
    }
  }
  return ErrorModel(std::move(ms));
}

double ErrorModel::average_error_rate() const {
  if (matrices_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& m : matrices_) {
    for (int a = 0; a < 4; ++a) {
      sum += 1.0 - m[static_cast<std::size_t>(a)][static_cast<std::size_t>(a)];
    }
  }
  return sum / (4.0 * static_cast<double>(matrices_.size()));
}

std::vector<MisreadMatrix> ErrorModel::kmer_position_matrices(int k) const {
  const std::size_t L = matrices_.size();
  const auto uk = static_cast<std::size_t>(k);
  std::vector<MisreadMatrix> q(uk, MisreadMatrix{});
  if (L < uk) return q;
  // Kmer position i can sit at read positions i, i+1, ..., i + (L-k).
  const double windows = static_cast<double>(L - uk + 1);
  for (std::size_t i = 0; i < uk; ++i) {
    for (std::size_t start = 0; start + uk <= L; ++start) {
      const auto& m = matrices_[start + i];
      for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
          q[i][static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] +=
              m[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] /
              windows;
        }
      }
    }
  }
  return q;
}

double kmer_misread_prob(const std::vector<MisreadMatrix>& q,
                         std::uint64_t from_code, std::uint64_t to_code,
                         int k) {
  double p = 1.0;
  for (int i = 0; i < k; ++i) {
    const std::uint8_t a = seq::kmer_base(from_code, k, i);
    const std::uint8_t b = seq::kmer_base(to_code, k, i);
    p *= q[static_cast<std::size_t>(i)][a][b];
  }
  return p;
}

}  // namespace ngs::sim
