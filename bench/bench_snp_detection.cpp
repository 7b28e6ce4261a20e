// Extension bench — SNP-vs-error separation (Chapter 5, direction 1):
// on diploid data, report the precision/recall of Reptile's
// ambiguity-based SNP candidates across the support gate, and verify
// correction leaves heterozygous sites intact (the failure the chapter
// warns about: a corrector that "fixes" the rarer allele).

#include "bench_common.hpp"

#include <set>

#include "eval/correction_metrics.hpp"
#include "reptile/corrector.hpp"
#include "reptile/polymorphism.hpp"
#include "sim/diploid.hpp"
#include "sim/genome.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Extension — SNP candidate detection from tile ambiguities",
      "Diploid simulation, heterozygous SNPs every >= 50 bp.");

  util::Rng rng(61);
  sim::GenomeSpec gspec;
  gspec.length = static_cast<std::size_t>(60000 * scale);
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.006);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 60.0;
  const auto sample =
      sim::simulate_diploid(genome.sequence, 0.0015, 50, model, cfg, rng);
  std::cout << "planted SNPs: " << sample.snp_positions.size() << ", reads: "
            << sample.reads.reads.size() << "\n\n";

  reptile::ReptileParams params;
  params.k = 11;
  params.c_min = 3;
  params.c_good = 10;
  reptile::ReptileCorrector corrector(sample.reads.reads, params);
  const int T = params.tile_length();
  const std::set<std::size_t> truth(sample.snp_positions.begin(),
                                    sample.snp_positions.end());

  // Precision/recall across the support gate.
  util::Table table({"min_support", "Candidates", "Precision", "SNPs hit",
                     "Recall"});
  for (const std::uint32_t support : {3u, 5u, 8u, 12u}) {
    reptile::SnpParams sp;
    sp.min_support = support;
    const auto candidates = reptile::detect_polymorphisms(corrector, sp);
    std::size_t correct = 0;
    std::set<std::size_t> hit_snps;
    for (const auto& cand : candidates) {
      const std::string sa = seq::decode_kmer(cand.tile_a, T);
      bool anchored = false;
      for (const auto& s : {sa, seq::reverse_complement(sa)}) {
        for (const auto* hap :
             {&sample.haplotype_a, &sample.haplotype_b}) {
          for (auto pos = hap->find(s); pos != std::string::npos;
               pos = hap->find(s, pos + 1)) {
            for (int o = 0; o < T; ++o) {
              const auto site = pos + static_cast<std::size_t>(o);
              if (truth.count(site) != 0) {
                anchored = true;
                hit_snps.insert(site);
              }
            }
          }
        }
      }
      correct += anchored;
    }
    table.add_row(
        {std::to_string(support), util::Table::num(candidates.size()),
         candidates.empty()
             ? "-"
             : util::Table::percent(static_cast<double>(correct) /
                                    static_cast<double>(candidates.size())),
         util::Table::num(hit_snps.size()),
         util::Table::percent(static_cast<double>(hit_snps.size()) /
                              static_cast<double>(truth.size()))});
  }
  table.print(std::cout);

  // Correction must preserve heterozygous bases: count reads whose SNP
  // allele was rewritten toward the other haplotype.
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(sample.reads.reads, stats);
  std::uint64_t allele_flips = 0, allele_sites = 0;
  for (std::size_t i = 0; i < corrected.size(); ++i) {
    const auto& truth_read = sample.reads.reads.truth[i];
    for (std::size_t p = 0; p < corrected[i].bases.size(); ++p) {
      // Position in genome coordinates.
      const std::size_t gpos =
          truth_read.reverse_strand
              ? truth_read.genome_pos + corrected[i].bases.size() - 1 - p
              : truth_read.genome_pos + p;
      if (truth.count(gpos) == 0) continue;
      ++allele_sites;
      if (corrected[i].bases[p] != sample.reads.reads.reads[i].bases[p] &&
          sample.reads.reads.reads[i].bases[p] ==
              truth_read.true_bases[p]) {
        ++allele_flips;
      }
    }
  }
  std::cout << "\nHeterozygous-site preservation: " << allele_flips
            << " correct alleles rewritten out of " << allele_sites
            << " allele observations ("
            << util::Table::percent(
                   allele_sites == 0
                       ? 0.0
                       : static_cast<double>(allele_flips) /
                             static_cast<double>(allele_sites),
                   3)
            << ")\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
