#include "sim/diploid.hpp"

#include "seq/alphabet.hpp"

namespace ngs::sim {

DiploidSample simulate_diploid(const std::string& reference, double snp_rate,
                               std::size_t min_spacing,
                               const ErrorModel& model,
                               const ReadSimConfig& config, util::Rng& rng) {
  DiploidSample sample;
  sample.haplotype_a = reference;
  sample.haplotype_b = reference;

  std::size_t last_snp = 0;
  bool any = false;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (any && i - last_snp < min_spacing) continue;
    if (!rng.bernoulli(snp_rate)) continue;
    const std::uint8_t cur = seq::base_to_code(reference[i]);
    const auto shift = static_cast<std::uint8_t>(1 + rng.below(3));
    sample.haplotype_b[i] =
        seq::code_to_base(static_cast<std::uint8_t>((cur + shift) & 3u));
    sample.snp_positions.push_back(i);
    last_snp = i;
    any = true;
  }

  // Half the coverage from each haplotype.
  ReadSimConfig half = config;
  if (half.coverage > 0.0) {
    half.coverage /= 2.0;
  } else {
    half.num_reads /= 2;
  }
  auto reads_a = simulate_reads(sample.haplotype_a, model, half, rng);
  auto reads_b = simulate_reads(sample.haplotype_b, model, half, rng);

  sample.reads.substitution_errors =
      reads_a.substitution_errors + reads_b.substitution_errors;
  sample.reads.ambiguous_bases =
      reads_a.ambiguous_bases + reads_b.ambiguous_bases;
  sample.from_b.assign(reads_a.reads.size(), false);
  sample.from_b.insert(sample.from_b.end(), reads_b.reads.size(), true);
  sample.reads.reads = std::move(reads_a.reads);
  for (std::size_t i = 0; i < reads_b.reads.size(); ++i) {
    reads_b.reads.reads[i].id = 'b' + std::to_string(i);
    sample.reads.reads.reads.push_back(std::move(reads_b.reads.reads[i]));
    sample.reads.reads.truth.push_back(std::move(reads_b.reads.truth[i]));
  }
  return sample;
}

}  // namespace ngs::sim
