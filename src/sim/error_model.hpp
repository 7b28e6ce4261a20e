#pragma once
// Position-specific substitution error model: the paper's misread
// probability matrices M = (M_1, ..., M_L), where M_i[a][b] is the
// probability that genome base `a` is read as `b` at read position i
// (Sec. 3.4.1). Also derives the per-kmer-position matrices q_i(a,b)
// REDEEM consumes (Sec. 3.2 / 3.4.2).

#include <array>
#include <cstdint>
#include <vector>

namespace ngs::sim {

using MisreadMatrix = std::array<std::array<double, 4>, 4>;

class ErrorModel {
 public:
  ErrorModel() = default;

  /// Uniform error distribution (the paper's tUED/wUED): every position,
  /// every base misreads with probability pe, uniformly to the other three.
  static ErrorModel uniform(std::size_t read_length, double pe);

  /// Realistic Illumina-like default: average error rate `avg_error`,
  /// rate ramping up toward the 3' end (exponential ramp, ~6x between
  /// first and last position, per Dohm et al. 2008), with
  /// nucleotide-specific substitution preferences matching the structure
  /// of Table 3.2 (A->C and G->T elevated).
  static ErrorModel illumina(std::size_t read_length, double avg_error);

  /// A deliberately *different* Illumina profile (stronger A->C / G->T
  /// skew, steeper ramp) standing in for the A. sp. ADP1-derived "wrong
  /// Illumina error distribution" (wIED) of Sec. 3.4.2.
  static ErrorModel illumina_alternate(std::size_t read_length,
                                       double avg_error);

  /// Builds a model from misread counts: counts[i][a][b] = number of times
  /// genome base a was read as b at position i (the estimation procedure
  /// run on mapper output). Rows with no observations fall back to
  /// identity with `fallback_error` spread uniformly.
  static ErrorModel from_counts(
      const std::vector<std::array<std::array<std::uint64_t, 4>, 4>>& counts,
      double fallback_error = 0.005);

  std::size_t read_length() const noexcept { return matrices_.size(); }
  bool empty() const noexcept { return matrices_.empty(); }

  const MisreadMatrix& matrix(std::size_t pos) const {
    return matrices_[pos];
  }

  /// P(error at position pos | true base `from`).
  double error_prob(std::size_t pos, std::uint8_t from) const {
    return 1.0 - matrices_[pos][from][from];
  }

  /// Average error probability across positions and bases (uniform base mix).
  double average_error_rate() const;

  /// Per-kmer-position matrices q_i(a,b), i in [0,k): the average of the
  /// read-position matrices that a kmer position i can land on, weighted
  /// uniformly over the read positions a length-k window can occupy.
  /// This mirrors the paper's estimation of q from read decompositions.
  std::vector<MisreadMatrix> kmer_position_matrices(int k) const;

  /// Mutates the model matrices (for tests / what-if experiments).
  void set_matrix(std::size_t pos, const MisreadMatrix& m) {
    matrices_[pos] = m;
  }

 private:
  explicit ErrorModel(std::vector<MisreadMatrix> matrices)
      : matrices_(std::move(matrices)) {}

  std::vector<MisreadMatrix> matrices_;
};

/// Misread probability between two kmers under per-position matrices q:
/// pe(xm, xl) = prod_i q_i(xm[i], xl[i]). Codes are packed 2-bit kmers.
double kmer_misread_prob(const std::vector<MisreadMatrix>& q,
                         std::uint64_t from_code, std::uint64_t to_code,
                         int k);

}  // namespace ngs::sim
