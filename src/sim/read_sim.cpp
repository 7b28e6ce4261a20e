#include "sim/read_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "seq/alphabet.hpp"

namespace ngs::sim {
namespace {

double phred_to_prob(double q) { return std::pow(10.0, -q / 10.0); }

/// Mean Phred at read position i: declines from quality_high toward
/// quality_low with a super-linear 3' drop.
double mean_quality(const ReadSimConfig& cfg, std::size_t i) {
  if (cfg.read_length <= 1) return cfg.quality_high;
  const double x = static_cast<double>(i) /
                   static_cast<double>(cfg.read_length - 1);
  return cfg.quality_high -
         (cfg.quality_high - cfg.quality_low) * std::pow(x, 1.5);
}

}  // namespace

SimulatedReads simulate_reads(std::string_view genome,
                              const ErrorModel& model,
                              const ReadSimConfig& config, util::Rng& rng) {
  const std::size_t L = config.read_length;
  if (genome.size() < L) {
    throw std::invalid_argument("simulate_reads: genome shorter than reads");
  }
  if (model.read_length() < L) {
    throw std::invalid_argument("simulate_reads: error model too short");
  }

  std::size_t n = config.num_reads;
  if (config.coverage > 0.0) {
    n = static_cast<std::size_t>(config.coverage *
                                 static_cast<double>(genome.size()) /
                                 static_cast<double>(L));
  }

  // Expected phred->prob per position, so the quality blend preserves the
  // model's marginal error rate: p_base = p_model * p_q / E[p_q].
  std::vector<double> expected_pq(L, 0.0);
  {
    constexpr int kDraws = 512;
    for (std::size_t i = 0; i < L; ++i) {
      util::Rng probe(0xabcdef12u + static_cast<std::uint64_t>(i));
      double sum = 0.0;
      for (int d = 0; d < kDraws; ++d) {
        const double q = std::clamp(
            probe.normal(mean_quality(config, i), config.quality_sd), 2.0,
            41.0);
        sum += phred_to_prob(q);
      }
      expected_pq[i] = sum / kDraws;
    }
  }

  SimulatedReads out;
  out.reads.reads.reserve(n);
  out.reads.truth.reserve(n);

  const std::size_t max_pos = genome.size() - L;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t pos = rng.below(max_pos + 1);
    const bool reverse = config.both_strands && rng.bernoulli(0.5);

    std::string true_read(genome.substr(pos, L));
    if (reverse) true_read = seq::reverse_complement(true_read);

    seq::Read read;
    read.id = 'r' + std::to_string(idx);
    read.bases = true_read;
    read.quality.resize(L);

    for (std::size_t i = 0; i < L; ++i) {
      const double q = std::clamp(
          rng.normal(mean_quality(config, i), config.quality_sd), 2.0, 41.0);
      read.quality[i] = static_cast<std::uint8_t>(q + 0.5);

      const std::uint8_t from = seq::base_to_code(true_read[i]);
      const double p_model = model.error_prob(i, from);
      const double p_base = std::min(
          0.75, p_model * phred_to_prob(q) / expected_pq[i]);
      if (rng.bernoulli(p_base)) {
        // Pick the substitution target from the model's off-diagonal row.
        const auto& row = model.matrix(i)[from];
        double total = 0.0;
        for (int b = 0; b < 4; ++b) {
          if (b != from) total += row[static_cast<std::size_t>(b)];
        }
        double u = rng.uniform() * total;
        std::uint8_t to = from;
        for (std::uint8_t b = 0; b < 4; ++b) {
          if (b == from) continue;
          u -= row[b];
          if (u <= 0.0) {
            to = b;
            break;
          }
        }
        if (to == from) to = static_cast<std::uint8_t>((from + 1) & 3u);
        read.bases[i] = seq::code_to_base(to);
        ++out.substitution_errors;
      }

      if (config.ambiguous_rate > 0.0) {
        const double p_n = read.quality[i] < config.ambig_quality_cutoff
                               ? config.ambiguous_rate * 4.0
                               : config.ambiguous_rate * 0.5;
        if (rng.bernoulli(std::min(1.0, p_n))) {
          read.bases[i] = 'N';
          read.quality[i] = 2;
          ++out.ambiguous_bases;
        }
      }
    }

    out.reads.reads.push_back(std::move(read));
    out.reads.truth.push_back(
        seq::ReadTruth{pos, reverse, std::move(true_read)});
  }
  return out;
}

}  // namespace ngs::sim
