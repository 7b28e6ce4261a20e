#include "sim/metagenome.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "seq/alphabet.hpp"
#include "sim/genome.hpp"

namespace ngs::sim {
namespace {

std::string mutate(const std::string& s, double rate, util::Rng& rng) {
  std::string out = s;
  for (auto& c : out) {
    if (rng.bernoulli(rate)) {
      const std::uint8_t cur = seq::base_to_code(c);
      const auto shift = static_cast<std::uint8_t>(1 + rng.below(3));
      c = seq::code_to_base(static_cast<std::uint8_t>((cur + shift) & 3u));
    }
  }
  return out;
}

/// As mutate(), but positions with mask[i] == true never change.
std::string mutate_masked(const std::string& s, double rate,
                          const std::vector<bool>& mask, util::Rng& rng) {
  std::string out = s;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (mask[i]) continue;
    if (rng.bernoulli(rate)) {
      const std::uint8_t cur = seq::base_to_code(out[i]);
      const auto shift = static_cast<std::uint8_t>(1 + rng.below(3));
      out[i] =
          seq::code_to_base(static_cast<std::uint8_t>((cur + shift) & 3u));
    }
  }
  return out;
}

}  // namespace

std::size_t Taxonomy::ancestor_at_rank(std::size_t species,
                                       std::size_t rank) const {
  std::size_t idx = species;
  for (std::size_t r = parents.size(); r > rank; --r) {
    idx = parents[r - 1][idx];
  }
  return idx;
}

std::size_t Taxonomy::taxa_at_rank(std::size_t rank) const {
  if (rank > parents.size()) {
    throw std::out_of_range("taxa_at_rank: rank beyond taxonomy depth");
  }
  if (rank == parents.size()) return species_sequences.size();
  if (rank == 0) return 1;
  // parents[r] holds one entry per taxon at rank r+1, so the level size
  // at `rank` is parents[rank-1].size().
  return parents[rank - 1].size();
}

Taxonomy simulate_taxonomy(const TaxonomySpec& spec, util::Rng& rng) {
  if (spec.branching.size() != spec.divergence.size()) {
    throw std::invalid_argument(
        "simulate_taxonomy: branching/divergence arity mismatch");
  }
  Taxonomy tax;
  const std::array<double, 4> uniform_comp{0.25, 0.25, 0.25, 0.25};
  std::vector<std::string> level{
      random_sequence(spec.gene_length, uniform_comp, rng)};

  // Conserved mask: a contiguous central block of the gene.
  std::vector<bool> conserved(spec.gene_length, false);
  if (spec.conserved_fraction > 0.0) {
    const auto span = static_cast<std::size_t>(
        spec.conserved_fraction * static_cast<double>(spec.gene_length));
    const std::size_t start = (spec.gene_length - span) / 2;
    for (std::size_t i = start; i < start + span; ++i) conserved[i] = true;
  }

  for (std::size_t r = 0; r < spec.branching.size(); ++r) {
    std::vector<std::string> next;
    std::vector<std::size_t> parent_of;
    next.reserve(level.size() * spec.branching[r]);
    for (std::size_t p = 0; p < level.size(); ++p) {
      for (std::size_t c = 0; c < spec.branching[r]; ++c) {
        next.push_back(
            mutate_masked(level[p], spec.divergence[r], conserved, rng));
        parent_of.push_back(p);
      }
    }
    tax.parents.push_back(std::move(parent_of));
    level = std::move(next);
  }
  tax.species_sequences = std::move(level);

  // Log-normal abundances, normalized.
  tax.abundances.resize(tax.species_sequences.size());
  double total = 0.0;
  for (auto& a : tax.abundances) {
    a = rng.lognormal(0.0, spec.abundance_sigma);
    total += a;
  }
  for (auto& a : tax.abundances) a /= total;
  return tax;
}

MetagenomeSample simulate_metagenome_reads(const Taxonomy& taxonomy,
                                           const MetagenomeReadConfig& config,
                                           util::Rng& rng) {
  if (taxonomy.num_species() == 0) {
    throw std::invalid_argument("simulate_metagenome_reads: empty taxonomy");
  }
  // Cumulative abundance for species selection.
  std::vector<double> cum(taxonomy.abundances.size());
  double run = 0.0;
  for (std::size_t i = 0; i < cum.size(); ++i) {
    run += taxonomy.abundances[i];
    cum[i] = run;
  }

  MetagenomeSample sample;
  sample.reads.reads.reserve(config.num_reads);
  sample.species_of.reserve(config.num_reads);

  const double scale = config.mean_length / config.length_shape;
  for (std::size_t i = 0; i < config.num_reads; ++i) {
    const double u = rng.uniform() * run;
    const auto it = std::lower_bound(cum.begin(), cum.end(), u);
    const auto species =
        static_cast<std::size_t>(std::distance(cum.begin(), it));
    const std::string& gene = taxonomy.species_sequences[species];

    std::size_t len = std::max<std::size_t>(
        config.min_length,
        static_cast<std::size_t>(rng.gamma(config.length_shape, scale)));
    len = std::min(len, gene.size());
    const std::size_t max_pos = gene.size() - len;
    std::size_t pos;
    if (config.amplicon_sites > 0) {
      // Amplicon start: near one of the primer sites, spread evenly
      // across the gene's placeable range.
      const std::size_t site_idx = rng.below(config.amplicon_sites);
      const double center =
          config.amplicon_sites == 1
              ? 0.0
              : static_cast<double>(max_pos) *
                    static_cast<double>(site_idx) /
                    static_cast<double>(config.amplicon_sites - 1);
      const double drawn = rng.normal(center, config.amplicon_sd);
      pos = static_cast<std::size_t>(
          std::clamp(drawn, 0.0, static_cast<double>(max_pos)));
    } else {
      pos = rng.below(max_pos + 1);
    }

    std::string bases;
    bool is_chimera = false;
    if (config.chimera_rate > 0.0 && rng.bernoulli(config.chimera_rate) &&
        taxonomy.num_species() > 1) {
      // PCR template switch: 5' fragment from this species, 3' fragment
      // from another, spliced at the midpoint of the amplicon window.
      std::size_t other = species;
      while (other == species) {
        other = rng.below(taxonomy.num_species());
      }
      const std::string& gene_b = taxonomy.species_sequences[other];
      const std::size_t half = len / 2;
      const std::size_t b_pos = std::min(pos + half, gene_b.size() - (len - half));
      bases = gene.substr(pos, half) + gene_b.substr(b_pos, len - half);
      is_chimera = true;
    } else {
      bases = gene.substr(pos, len);
    }
    if (config.both_strands && rng.bernoulli(0.5)) {
      bases = seq::reverse_complement(bases);
    }
    bases = mutate(bases, config.error_rate, rng);
    if (config.indel_rate > 0.0) {
      std::string with_indels;
      with_indels.reserve(bases.size() + 8);
      for (const char c : bases) {
        if (rng.bernoulli(config.indel_rate)) {
          if (rng.bernoulli(0.5)) {
            continue;  // deletion
          }
          // Insertion: duplicate the base (homopolymer-style).
          with_indels.push_back(c);
        }
        with_indels.push_back(c);
      }
      bases = std::move(with_indels);
    }

    seq::Read read;
    read.id = 'm' + std::to_string(i);
    read.bases = std::move(bases);
    sample.reads.reads.push_back(std::move(read));
    sample.species_of.push_back(static_cast<std::uint32_t>(species));
    if (config.chimera_rate > 0.0) sample.chimeric.push_back(is_chimera);
  }
  return sample;
}

}  // namespace ngs::sim
