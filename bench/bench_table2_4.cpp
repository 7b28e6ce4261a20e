// Regenerates Table 2.4: quality of ambiguous-base ('N') correction by
// Reptile on D2/D6 analogs, varying the default substitution base.

#include "bench_common.hpp"

#include "eval/correction_metrics.hpp"
#include "reptile/corrector.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.3);
  bench::print_header(
      "Table 2.4 — Quality of ambiguous base correction using Reptile",
      "N's are injected at low-quality positions; Accuracy = fraction of "
      "N positions resolved to the true base.");

  util::Table table({"Data", "N", "Accuracy", "Sensitivity", "Specificity",
                     "Gain", "EBA"});

  auto specs = sim::chapter2_specs(scale);
  for (auto* spec : {&specs[1], &specs[5]}) {  // D2 and D6
    // Ensure both datasets carry ambiguous bases (D2 in the paper was
    // run on its full version including N-containing reads).
    if (spec->read_config.ambiguous_rate == 0.0) {
      spec->read_config.ambiguous_rate = 0.0015;
    }
    const auto d = sim::make_dataset(*spec, 42);
    for (const char base : {'A', 'C', 'G', 'T'}) {
      auto params =
          reptile::select_parameters(d.sim.reads, d.genome.sequence.size());
      params.default_base = base;
      reptile::ReptileCorrector corrector(d.sim.reads, params);
      reptile::CorrectionStats stats;
      const auto corrected = corrector.correct_all(d.sim.reads, stats);
      const auto metrics = eval::evaluate_correction(d.sim.reads, corrected);
      const auto ambig = eval::evaluate_ambiguous(d.sim.reads, corrected);
      table.add_row({spec->name, std::string(1, base),
                     util::Table::percent(ambig.accuracy(), 2),
                     util::Table::percent(metrics.sensitivity()),
                     util::Table::percent(metrics.specificity()),
                     util::Table::percent(metrics.gain()),
                     util::Table::fixed(metrics.eba() * 100.0, 3) + "%"});
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
