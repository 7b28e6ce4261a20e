// Regenerates Figure 2.3: Gain and Sensitivity of Reptile on the D3
// analog across the paper's 12 parameter settings — 11 points with
// k=11, d=1, |t|=22 and a (Cm, Qc) ladder, plus a final point with
// k=12, d=2, |t|=24, Cm=8, Qc=45.
//
// Expected shape: both curves rise as (Cm, Qc) relax; Gain dips at the
// most permissive settings where miscorrections start to bite.

#include "bench_common.hpp"

#include "eval/correction_metrics.hpp"
#include "reptile/corrector.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.3);
  bench::print_header(
      "Figure 2.3 — Gain and Sensitivity vs parameter choices (D3)",
      "Quality cutoffs are mapped from the paper's Solexa-64 scale to "
      "Phred: Qc' = Qc - 31.");

  const auto spec = sim::chapter2_specs(scale)[2];  // D3
  const auto d = sim::make_dataset(spec, 42);

  struct Point {
    int k;
    int dd;
    std::uint32_t cm;
    int qc_solexa;
  };
  const std::vector<Point> points = {
      {11, 1, 14, 60}, {11, 1, 12, 60}, {11, 1, 10, 60}, {11, 1, 10, 55},
      {11, 1, 8, 60},  {11, 1, 8, 55},  {11, 1, 8, 50},  {11, 1, 8, 45},
      {11, 1, 7, 45},  {11, 1, 6, 45},  {11, 1, 5, 45},  {12, 2, 8, 45},
  };

  util::Table table({"Point", "k", "d", "|t|", "Cm", "Qc", "Sensitivity",
                     "Gain"});
  int idx = 1;
  for (const auto& p : points) {
    reptile::ReptileParams params;
    params.k = p.k;
    params.d = p.dd;
    params.c_min = p.cm;
    params.c_good = std::max<std::uint32_t>(p.cm * 3, 12);
    params.quality_cutoff = std::max(2, p.qc_solexa - 31);
    params.quality_max = params.quality_cutoff + 15;
    reptile::ReptileCorrector corrector(d.sim.reads, params);
    reptile::CorrectionStats stats;
    const auto corrected = corrector.correct_all(d.sim.reads, stats);
    const auto m = eval::evaluate_correction(d.sim.reads, corrected);
    table.add_row({std::to_string(idx++), std::to_string(p.k),
                   std::to_string(p.dd), std::to_string(2 * p.k),
                   std::to_string(p.cm), std::to_string(p.qc_solexa),
                   util::Table::fixed(m.sensitivity(), 2),
                   util::Table::fixed(m.gain(), 2)});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
