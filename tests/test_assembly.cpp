#include <gtest/gtest.h>

#include <algorithm>

#include "assembly/debruijn.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

seq::ReadSet reads_from(const std::vector<std::string>& seqs) {
  seq::ReadSet set;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    set.reads.push_back({'r' + std::to_string(i), seqs[i], {}});
  }
  return set;
}

TEST(DeBruijn, SingleSequenceYieldsSingleUnitig) {
  // Error-free tiling reads over a repeat-free sequence reconstruct it.
  util::Rng rng(5);
  const auto genome =
      sim::random_sequence(300, {0.25, 0.25, 0.25, 0.25}, rng);
  std::vector<std::string> reads;
  for (std::size_t i = 0; i + 40 <= genome.size(); i += 5) {
    reads.push_back(genome.substr(i, 40));
  }
  assembly::DeBruijnParams params;
  params.k = 21;
  params.min_kmer_count = 1;
  const auto graph =
      assembly::DeBruijnGraph::build(reads_from(reads), params);
  const auto unitigs = graph.unitigs();
  ASSERT_EQ(unitigs.size(), 1u);
  const std::string rc = seq::reverse_complement(genome);
  EXPECT_TRUE(unitigs[0] == genome || unitigs[0] == rc);
}

TEST(DeBruijn, RepeatBreaksUnitigs) {
  // A sequence of the form A R B R C (R repeated) cannot assemble into
  // one unitig at k shorter than R.
  util::Rng rng(6);
  const auto a = sim::random_sequence(150, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto r = sim::random_sequence(60, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto b = sim::random_sequence(150, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto c = sim::random_sequence(150, {0.25, 0.25, 0.25, 0.25}, rng);
  const std::string genome = a + r + b + r + c;
  std::vector<std::string> reads;
  for (std::size_t i = 0; i + 40 <= genome.size(); i += 3) {
    reads.push_back(genome.substr(i, 40));
  }
  assembly::DeBruijnParams params;
  params.k = 21;
  params.min_kmer_count = 1;
  const auto graph =
      assembly::DeBruijnGraph::build(reads_from(reads), params);
  EXPECT_GT(graph.unitigs().size(), 2u);
}

TEST(DeBruijn, WeakKmerFilterDropsErrors) {
  util::Rng rng(7);
  const auto genome =
      sim::random_sequence(20000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 40.0;
  const auto run = sim::simulate_reads(genome, model, cfg, rng);

  assembly::DeBruijnParams strict;
  strict.k = 21;
  strict.min_kmer_count = 3;
  assembly::DeBruijnParams lax = strict;
  lax.min_kmer_count = 1;
  const auto strict_graph =
      assembly::DeBruijnGraph::build(run.reads, strict);
  const auto lax_graph = assembly::DeBruijnGraph::build(run.reads, lax);
  // Error kmers are mostly singletons: the filter shrinks the graph a lot.
  EXPECT_LT(strict_graph.num_edges() * 2, lax_graph.num_edges());
}

TEST(DeBruijn, Degrees) {
  // Two branches out of one node: AAAC and AAAG share prefix AAA.
  const auto set = reads_from({"AAACT", "AAAGT"});
  assembly::DeBruijnParams params;
  params.k = 4;
  params.min_kmer_count = 1;
  const auto graph = assembly::DeBruijnGraph::build(set, params);
  const auto node = seq::encode_kmer("AAA").value();
  EXPECT_EQ(graph.out_degree(node), 2);
}

TEST(AssemblyStats, N50Computation) {
  const std::vector<std::string> contigs = {
      std::string(100, 'A'), std::string(200, 'A'), std::string(50, 'A'),
      std::string(700, 'A')};
  const auto stats = assembly::assembly_stats(contigs);
  EXPECT_EQ(stats.num_contigs, 4u);
  EXPECT_EQ(stats.total_length, 1050u);
  EXPECT_EQ(stats.max_length, 700u);
  EXPECT_EQ(stats.n50, 700u);  // 700 alone covers >= 525
  const auto filtered = assembly::assembly_stats(contigs, 100);
  EXPECT_EQ(filtered.num_contigs, 3u);
}

TEST(AssemblyStats, EmptyInput) {
  const auto stats = assembly::assembly_stats({});
  EXPECT_EQ(stats.num_contigs, 0u);
  EXPECT_EQ(stats.n50, 0u);
}

TEST(AssemblyEval, PerfectContigsScorePerfect) {
  util::Rng rng(8);
  const auto genome =
      sim::random_sequence(5000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto eval = assembly::evaluate_contigs({genome}, genome, 21);
  EXPECT_DOUBLE_EQ(eval.contig_kmer_accuracy, 1.0);
  EXPECT_GT(eval.genome_kmers_covered, 0.99);
  EXPECT_EQ(eval.spurious_contig_kmers, 0u);
}

TEST(AssemblyEval, SpuriousKmersAreCounted) {
  util::Rng rng(9);
  const auto genome =
      sim::random_sequence(5000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto junk = sim::random_sequence(200, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto eval =
      assembly::evaluate_contigs({genome.substr(0, 1000), junk}, genome, 21);
  EXPECT_GT(eval.spurious_contig_kmers, 100u);
  EXPECT_LT(eval.genome_kmers_covered, 0.5);
}

}  // namespace
