// Extension bench — assembly-based validation of error correction (the
// validation measure Sec. 1.2 discusses: prior work judged correctors by
// assembly improvement). Assemble the D2 analog raw vs corrected by each
// method; correction must shrink the spurious-kmer load and improve
// unitig contiguity (N50).

#include "bench_common.hpp"

#include "assembly/debruijn.hpp"
#include "kspec/kspectrum.hpp"
#include "redeem/corrector.hpp"
#include "redeem/em_model.hpp"
#include "redeem/error_dist.hpp"
#include "reptile/corrector.hpp"
#include "shrec/shrec.hpp"

using namespace ngs;

namespace {

void assemble_and_report(util::Table& table, const std::string& method,
                         const seq::ReadSet& reads,
                         const std::string& genome) {
  assembly::DeBruijnParams params;
  params.k = 21;
  params.min_kmer_count = 2;
  const auto graph = assembly::DeBruijnGraph::build(reads, params);
  const auto unitigs = graph.unitigs();
  const auto stats = assembly::assembly_stats(unitigs, 50);
  const auto eval = assembly::evaluate_contigs(unitigs, genome, params.k);
  table.add_row({method, util::Table::num(graph.num_edges()),
                 util::Table::num(stats.num_contigs),
                 util::Table::num(stats.n50),
                 util::Table::num(stats.max_length),
                 util::Table::percent(eval.genome_kmers_covered),
                 util::Table::percent(eval.contig_kmer_accuracy, 2)});
}

}  // namespace

int main() try {
  const double scale = bench::scale_or(0.3);
  bench::print_header(
      "Extension — de Bruijn assembly before/after error correction",
      "D2 analog; solid-kmer cutoff 2, unitigs >= 50 bp.");

  const auto spec = sim::chapter2_specs(scale)[1];  // D2
  const auto d = sim::make_dataset(spec, 42);

  util::Table table({"Reads", "Solid kmers", "Unitigs", "N50", "Max",
                     "Genome covered", "Kmer accuracy"});
  assemble_and_report(table, "uncorrected", d.sim.reads, d.genome.sequence);

  {
    auto params =
        reptile::select_parameters(d.sim.reads, d.genome.sequence.size());
    reptile::ReptileCorrector corrector(d.sim.reads, params);
    reptile::CorrectionStats stats;
    seq::ReadSet corrected;
    corrected.reads = corrector.correct_all(d.sim.reads, stats);
    assemble_and_report(table, "Reptile-corrected", corrected,
                        d.genome.sequence);
  }
  {
    shrec::ShrecParams sp;
    sp.genome_length = d.genome.sequence.size();
    shrec::ShrecCorrector corrector(sp);
    shrec::ShrecStats stats;
    seq::ReadSet corrected;
    corrected.reads = corrector.correct_all(d.sim.reads, stats);
    assemble_and_report(table, "SHREC-corrected", corrected,
                        d.genome.sequence);
  }
  {
    const auto spectrum = kspec::KSpectrum::build(d.sim.reads, 11, false);
    const auto q = redeem::kmer_error_matrices(
        redeem::ErrorDistKind::kTrueIllumina, 11, d.model);
    const redeem::RedeemModel model(spectrum, q, {});
    redeem::RedeemCorrector corrector(model, {});
    redeem::RedeemCorrectionStats stats;
    seq::ReadSet corrected;
    corrected.reads = corrector.correct_all(d.sim.reads, stats);
    assemble_and_report(table, "REDEEM-corrected", corrected,
                        d.genome.sequence);
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
