#include <gtest/gtest.h>

#include <cmath>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "sim/datasets.hpp"
#include "sim/error_model.hpp"
#include "sim/genome.hpp"
#include "sim/metagenome.hpp"
#include "sim/read_sim.hpp"

namespace {

using namespace ngs;

TEST(Genome, LengthAndComposition) {
  util::Rng rng(1);
  sim::GenomeSpec spec;
  spec.length = 50000;
  const auto g = sim::simulate_genome(spec, rng);
  EXPECT_EQ(g.sequence.size(), 50000u);
  std::array<double, 4> freq{};
  for (char c : g.sequence) freq[seq::base_to_code(c)] += 1.0 / 50000;
  EXPECT_NEAR(freq[0], 0.28, 0.01);  // A
  EXPECT_NEAR(freq[1], 0.23, 0.01);  // C
  EXPECT_NEAR(freq[2], 0.22, 0.01);  // G
  EXPECT_NEAR(freq[3], 0.27, 0.01);  // T
}

TEST(Genome, RepeatFractionMatchesSpec) {
  util::Rng rng(2);
  sim::GenomeSpec spec;
  spec.length = 100000;
  spec.repeats = {{500, 40, 0.0}, {1500, 20, 0.0}};  // 50k bases = 50%
  const auto g = sim::simulate_genome(spec, rng);
  EXPECT_NEAR(g.repeat_fraction, 0.5, 1e-9);
  EXPECT_EQ(g.sequence.size(), 100000u);
}

TEST(Genome, ExactRepeatsCreateHighFrequencyKmers) {
  util::Rng rng(3);
  sim::GenomeSpec spec;
  spec.length = 60000;
  spec.repeats = {{800, 20, 0.0}};
  const auto g = sim::simulate_genome(spec, rng);
  // The repeat template's interior kmers should occur ~20 times.
  // Count the most frequent 16-mer occurrence.
  std::vector<seq::KmerCode> codes;
  seq::extract_kmer_codes(g.sequence, 16, codes);
  std::sort(codes.begin(), codes.end());
  std::size_t best = 0, run = 1;
  for (std::size_t i = 1; i < codes.size(); ++i) {
    run = (codes[i] == codes[i - 1]) ? run + 1 : 1;
    best = std::max(best, run);
  }
  EXPECT_GE(best, 20u);
}

TEST(Genome, RejectsOverfullRepeatSpec) {
  util::Rng rng(4);
  sim::GenomeSpec spec;
  spec.length = 1000;
  spec.repeats = {{500, 10, 0.0}};  // 5000 bases into a 1000-base genome
  EXPECT_THROW(sim::simulate_genome(spec, rng), std::invalid_argument);
}

TEST(ErrorModel, RowsAreDistributions) {
  for (const auto& model :
       {sim::ErrorModel::uniform(50, 0.01), sim::ErrorModel::illumina(50, 0.01),
        sim::ErrorModel::illumina_alternate(50, 0.01)}) {
    for (std::size_t i = 0; i < model.read_length(); ++i) {
      for (int a = 0; a < 4; ++a) {
        double sum = 0.0;
        for (int b = 0; b < 4; ++b) sum += model.matrix(i)[a][b];
        ASSERT_NEAR(sum, 1.0, 1e-12);
      }
    }
  }
}

TEST(ErrorModel, AverageRateMatchesTarget) {
  const auto model = sim::ErrorModel::illumina(36, 0.015);
  EXPECT_NEAR(model.average_error_rate(), 0.015, 0.002);
}

TEST(ErrorModel, IlluminaRampRisesTowardThreePrime) {
  const auto model = sim::ErrorModel::illumina(100, 0.02);
  EXPECT_LT(model.error_prob(0, 0), model.error_prob(99, 0));
  EXPECT_GT(model.error_prob(99, 0) / model.error_prob(0, 0), 3.0);
}

TEST(ErrorModel, FromCountsRecoversRates) {
  std::vector<std::array<std::array<std::uint64_t, 4>, 4>> counts(1);
  counts[0][0] = {9000, 800, 100, 100};  // A misread 10% of the time
  counts[0][1] = {0, 10000, 0, 0};
  counts[0][2] = {0, 0, 10000, 0};
  counts[0][3] = {0, 0, 0, 10000};
  const auto model = sim::ErrorModel::from_counts(counts);
  EXPECT_NEAR(model.error_prob(0, 0), 0.1, 0.005);
  EXPECT_NEAR(model.matrix(0)[0][1], 0.08, 0.005);
  // Smoothing keeps all entries nonzero.
  EXPECT_GT(model.matrix(0)[1][0], 0.0);
}

TEST(ErrorModel, KmerPositionMatricesAreDistributions) {
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  const auto q = model.kmer_position_matrices(12);
  ASSERT_EQ(q.size(), 12u);
  for (const auto& m : q) {
    for (int a = 0; a < 4; ++a) {
      double sum = 0.0;
      for (int b = 0; b < 4; ++b) sum += m[a][b];
      ASSERT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(ErrorModel, KmerMisreadProbMultiplies) {
  const auto model = sim::ErrorModel::uniform(10, 0.03);
  const auto q = model.kmer_position_matrices(4);
  const auto a = seq::encode_kmer("ACGT").value();
  // Identity misread: (1-p)^4.
  EXPECT_NEAR(sim::kmer_misread_prob(q, a, a, 4), std::pow(0.97, 4), 1e-9);
  const auto b = seq::encode_kmer("TCGT").value();
  EXPECT_NEAR(sim::kmer_misread_prob(q, a, b, 4),
              std::pow(0.97, 3) * 0.01, 1e-9);
}

TEST(ReadSim, TruthMatchesGenome) {
  util::Rng rng(6);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.num_reads = 500;
  const auto result = sim::simulate_reads(genome.sequence, model, cfg, rng);
  ASSERT_EQ(result.reads.size(), 500u);
  ASSERT_TRUE(result.reads.has_truth());
  for (std::size_t i = 0; i < result.reads.size(); ++i) {
    const auto& t = result.reads.truth[i];
    std::string expect = genome.sequence.substr(t.genome_pos, 36);
    if (t.reverse_strand) expect = seq::reverse_complement(expect);
    EXPECT_EQ(t.true_bases, expect);
    EXPECT_EQ(result.reads.reads[i].bases.size(), 36u);
    EXPECT_EQ(result.reads.reads[i].quality.size(), 36u);
  }
}

TEST(ReadSim, RealizedErrorRateNearTarget) {
  util::Rng rng(7);
  const auto genome = sim::random_sequence(
      50000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 30.0;
  const auto result = sim::simulate_reads(genome, model, cfg, rng);
  EXPECT_NEAR(result.realized_error_rate(), 0.01, 0.003);
}

TEST(ReadSim, ErrorsClusterAtLowQuality) {
  util::Rng rng(8);
  const auto genome =
      sim::random_sequence(50000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto model = sim::ErrorModel::illumina(50, 0.02);
  sim::ReadSimConfig cfg;
  cfg.read_length = 50;
  cfg.coverage = 20.0;
  const auto result = sim::simulate_reads(genome, model, cfg, rng);
  double err_q_sum = 0.0, ok_q_sum = 0.0;
  std::uint64_t err_n = 0, ok_n = 0;
  for (std::size_t i = 0; i < result.reads.size(); ++i) {
    const auto& r = result.reads.reads[i];
    const auto& t = result.reads.truth[i];
    for (std::size_t p = 0; p < r.bases.size(); ++p) {
      if (r.bases[p] != t.true_bases[p]) {
        err_q_sum += r.quality[p];
        ++err_n;
      } else {
        ok_q_sum += r.quality[p];
        ++ok_n;
      }
    }
  }
  ASSERT_GT(err_n, 100u);
  EXPECT_LT(err_q_sum / err_n + 3.0, ok_q_sum / ok_n);
}

TEST(ReadSim, AmbiguousInjection) {
  util::Rng rng(9);
  const auto genome =
      sim::random_sequence(30000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto model = sim::ErrorModel::illumina(50, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 50;
  cfg.coverage = 10.0;
  cfg.ambiguous_rate = 0.002;
  const auto result = sim::simulate_reads(genome, model, cfg, rng);
  EXPECT_GT(result.ambiguous_bases, 0u);
  std::uint64_t n_count = 0;
  for (const auto& r : result.reads.reads) {
    n_count += static_cast<std::uint64_t>(
        std::count(r.bases.begin(), r.bases.end(), 'N'));
  }
  EXPECT_EQ(n_count, result.ambiguous_bases);
}

TEST(Datasets, Chapter2SpecsInstantiate) {
  const auto specs = sim::chapter2_specs(0.2);
  ASSERT_EQ(specs.size(), 6u);
  const auto d = sim::make_dataset(specs[1], 99);
  EXPECT_EQ(d.spec.name, "D2");
  EXPECT_GT(d.sim.reads.size(), 1000u);
  EXPECT_NEAR(d.sim.realized_error_rate(), 0.006, 0.004);
}

TEST(Datasets, Chapter3RepeatFractions) {
  const auto specs = sim::chapter3_specs(0.5);
  ASSERT_EQ(specs.size(), 6u);
  const auto d1 = sim::make_dataset(specs[0], 1);
  const auto d3 = sim::make_dataset(specs[2], 1);
  EXPECT_NEAR(d1.genome.repeat_fraction, 0.2, 0.03);
  EXPECT_NEAR(d3.genome.repeat_fraction, 0.8, 0.03);
}

TEST(Metagenome, TaxonomyShape) {
  util::Rng rng(10);
  sim::TaxonomySpec spec;
  spec.branching = {3, 4, 5};
  spec.divergence = {0.10, 0.05, 0.02};
  const auto tax = sim::simulate_taxonomy(spec, rng);
  EXPECT_EQ(tax.num_species(), 60u);
  EXPECT_EQ(tax.taxa_at_rank(0), 1u);
  EXPECT_EQ(tax.taxa_at_rank(1), 3u);
  EXPECT_EQ(tax.taxa_at_rank(2), 12u);
  EXPECT_EQ(tax.taxa_at_rank(3), 60u);
  // Ancestors are consistent: species 59 under the last genus/phylum.
  EXPECT_EQ(tax.ancestor_at_rank(59, 2), 11u);
  EXPECT_EQ(tax.ancestor_at_rank(59, 1), 2u);
  EXPECT_EQ(tax.ancestor_at_rank(0, 1), 0u);
  double total = 0.0;
  for (double a : tax.abundances) total += a;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Metagenome, WithinSpeciesMoreSimilarThanAcross) {
  util::Rng rng(11);
  sim::TaxonomySpec spec;
  const auto tax = sim::simulate_taxonomy(spec, rng);
  // Same-genus species should agree far more than cross-phylum species.
  const auto& s0 = tax.species_sequences[0];
  const auto& s1 = tax.species_sequences[1];   // same genus as s0
  const auto& sx = tax.species_sequences.back();  // different phylum
  const double same =
      1.0 - static_cast<double>(seq::hamming_distance(s0, s1)) / s0.size();
  const double cross =
      1.0 - static_cast<double>(seq::hamming_distance(s0, sx)) / s0.size();
  EXPECT_GT(same, cross + 0.05);
}

TEST(Metagenome, ReadsCarrySpeciesTruth) {
  util::Rng rng(12);
  sim::TaxonomySpec tspec;
  const auto tax = sim::simulate_taxonomy(tspec, rng);
  sim::MetagenomeReadConfig cfg;
  cfg.num_reads = 1000;
  const auto sample = sim::simulate_metagenome_reads(tax, cfg, rng);
  ASSERT_EQ(sample.reads.size(), 1000u);
  ASSERT_EQ(sample.species_of.size(), 1000u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_LT(sample.species_of[i], tax.num_species());
    EXPECT_GE(sample.reads.reads[i].bases.size(), cfg.min_length);
  }
  // Mean length near 400.
  double mean = 0.0;
  for (const auto& r : sample.reads.reads) {
    mean += static_cast<double>(r.bases.size()) / 1000.0;
  }
  EXPECT_NEAR(mean, 400.0, 25.0);
}

}  // namespace
