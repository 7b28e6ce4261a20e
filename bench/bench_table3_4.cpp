// Regenerates Table 3.4: error-correction comparison of SHREC, Reptile,
// and REDEEM on the synthetic repeat datasets D1 (20%), D2 (50%), D3
// (80%). Expected shape (the chapter's central claim): SHREC/Reptile win
// at low repeat content, REDEEM overtakes as repeats dominate, with the
// crossover around D2; REDEEM costs the most CPU.

#include "bench_common.hpp"

#include "eval/correction_metrics.hpp"
#include "kspec/kspectrum.hpp"
#include "redeem/corrector.hpp"
#include "redeem/em_model.hpp"
#include "redeem/error_dist.hpp"
#include "reptile/corrector.hpp"
#include "shrec/shrec.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.5);
  bench::print_header(
      "Table 3.4 — Error correction results on repeat-rich genomes",
      "D1/D2/D3 span 20/50/80% repeats.");

  util::Table table({"Data", "Method", "Sensitivity", "Specificity", "Gain",
                     "CPU(s)", "Mem(GB)"});

  auto specs = sim::chapter3_specs(scale);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto d = sim::make_dataset(specs[i], 7);

    {
      shrec::ShrecParams sp;
      sp.genome_length = d.genome.sequence.size();
      shrec::ShrecCorrector corrector(sp);
      shrec::ShrecStats stats;
      util::Timer timer;
      const auto corrected = corrector.correct_all(d.sim.reads, stats);
      const auto m = eval::evaluate_correction(d.sim.reads, corrected);
      table.add_row({specs[i].name, "SHREC",
                     util::Table::percent(m.sensitivity()),
                     util::Table::percent(m.specificity()),
                     util::Table::percent(m.gain()),
                     util::Table::fixed(timer.seconds(), 1),
                     bench::mem_gb()});
    }
    {
      auto params =
          reptile::select_parameters(d.sim.reads, d.genome.sequence.size());
      util::Timer timer;
      reptile::ReptileCorrector corrector(d.sim.reads, params);
      reptile::CorrectionStats stats;
      const auto corrected = corrector.correct_all(d.sim.reads, stats);
      const auto m = eval::evaluate_correction(d.sim.reads, corrected);
      table.add_row({specs[i].name, "Reptile (adaptive)",
                     util::Table::percent(m.sensitivity()),
                     util::Table::percent(m.specificity()),
                     util::Table::percent(m.gain()),
                     util::Table::fixed(timer.seconds(), 1),
                     bench::mem_gb()});
    }
    {
      // Reptile with parameters tuned for a *non-repetitive* genome (the
      // paper ran default settings): repeat-shadow error tiles exceed the
      // fixed Cg and auto-validate — the failure mode that motivates
      // REDEEM in the first place.
      reptile::ReptileParams params;
      params.k = 11;
      params.c_good = 12;
      params.c_min = 4;
      params.quality_cutoff = 15;
      util::Timer timer;
      reptile::ReptileCorrector corrector(d.sim.reads, params);
      reptile::CorrectionStats stats;
      const auto corrected = corrector.correct_all(d.sim.reads, stats);
      const auto m = eval::evaluate_correction(d.sim.reads, corrected);
      table.add_row({specs[i].name, "Reptile (fixed)",
                     util::Table::percent(m.sensitivity()),
                     util::Table::percent(m.specificity()),
                     util::Table::percent(m.gain()),
                     util::Table::fixed(timer.seconds(), 1),
                     bench::mem_gb()});
    }
    {
      util::Timer timer;
      const auto spectrum =
          kspec::KSpectrum::build(d.sim.reads, 11, /*both_strands=*/false);
      const auto q = redeem::kmer_error_matrices(
          redeem::ErrorDistKind::kTrueIllumina, 11, d.model);
      const redeem::RedeemModel model(spectrum, q, {});
      redeem::RedeemCorrector corrector(model, {});
      redeem::RedeemCorrectionStats stats;
      const auto corrected = corrector.correct_all(d.sim.reads, stats);
      const auto m = eval::evaluate_correction(d.sim.reads, corrected);
      table.add_row({specs[i].name, "REDEEM",
                     util::Table::percent(m.sensitivity()),
                     util::Table::percent(m.specificity()),
                     util::Table::percent(m.gain()),
                     util::Table::fixed(timer.seconds(), 1),
                     bench::mem_gb()});
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
