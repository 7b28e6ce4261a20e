// Regenerates Table 2.3: Reptile (d=1, d=2) vs SHREC on the Chapter 2
// datasets — base-level TP/FN/FP/TN, EBA, Sensitivity, Specificity,
// Gain, CPU time, memory. Expected shape (paper): Reptile beats SHREC on
// Gain and EBA everywhere; d=2 raises sensitivity at higher EBA; Reptile
// is several times faster.

#include "bench_common.hpp"

#include "eval/correction_metrics.hpp"
#include "reptile/corrector.hpp"
#include "shrec/shrec.hpp"

using namespace ngs;

namespace {

void add_row(util::Table& table, const std::string& data,
             const std::string& method, const eval::CorrectionCounts& m,
             double seconds) {
  table.add_row({data, method, util::Table::num(m.tp), util::Table::num(m.fn),
                 util::Table::num(m.fp), util::Table::num(m.tn),
                 util::Table::fixed(m.eba() * 100.0, 3),
                 util::Table::percent(m.sensitivity()),
                 util::Table::percent(m.specificity()),
                 util::Table::percent(m.gain()),
                 util::Table::fixed(seconds, 1), ngs::bench::mem_gb()});
}

}  // namespace

int main() try {
  const double scale = bench::scale_or(0.2);
  bench::print_header(
      "Table 2.3 — Reptile vs SHREC on Illumina-like short reads",
      "Exact per-base truth from the simulator replaces RMAP-derived "
      "truth. Memory column is process peak RSS (GB) after the method.");

  util::Table table({"Data", "Method", "TP", "FN", "FP", "TN", "EBA(%)",
                     "Sens", "Spec", "Gain", "CPU(s)", "Mem(GB)"});

  for (const auto& spec : sim::chapter2_specs(scale)) {
    const auto d = sim::make_dataset(spec, 42);
    // SHREC cannot process ambiguous bases (as in the paper, reads with
    // N would be discarded); our datasets only inject N in D6, where
    // Reptile's N handling is evaluated separately in Table 2.4.

    {
      shrec::ShrecParams sp;
      sp.genome_length = d.genome.sequence.size();
      shrec::ShrecCorrector shrec_corrector(sp);
      shrec::ShrecStats stats;
      util::Timer timer;
      const auto corrected = shrec_corrector.correct_all(d.sim.reads, stats);
      const double secs = timer.seconds();
      add_row(table, spec.name, "SHREC",
              eval::evaluate_correction(d.sim.reads, corrected), secs);
    }

    const auto base_params = reptile::select_parameters(
        d.sim.reads, d.genome.sequence.size());
    for (const int dd : {1, 2}) {
      auto params = base_params;
      params.d = dd;
      util::Timer timer;
      reptile::ReptileCorrector corrector(d.sim.reads, params);
      reptile::CorrectionStats stats;
      const auto corrected = corrector.correct_all(d.sim.reads, stats);
      const double secs = timer.seconds();
      add_row(table, spec.name, "Reptile(" + std::to_string(dd) + ")",
              eval::evaluate_correction(d.sim.reads, corrected), secs);
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
