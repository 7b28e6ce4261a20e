// Regenerates Table 3.3: minimum FP+FN over all thresholds, comparing
// thresholding on observed occurrences Y against thresholding on the
// REDEEM-estimated attempts T under each error distribution. Expected
// shape: T beats Y (bold in the paper), with the margin growing with
// repeat content and shrinking for wrong error distributions.

#include "bench_common.hpp"
#include "redeem_common.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.25);
  bench::print_header(
      "Table 3.3 — Minimum wrong predictions (FP+FN): Y vs REDEEM T",
      "Asterisk marks where the model beats raw-count thresholding.");

  util::Table table(
      {"Data", "Y", "tIED", "wIED", "tUED", "wUED"});
  for (const auto& spec : sim::chapter3_specs(scale)) {
    const auto d = sim::make_dataset(spec, 7);
    const auto sweeps = bench::run_redeem_sweeps(d, 11);
    const auto y_best = eval::best_point(sweeps.observed).wrong();
    std::vector<std::string> row{spec.name, util::Table::num(y_best)};
    for (const char* name : {"tIED", "wIED", "tUED", "wUED"}) {
      const auto best = eval::best_point(sweeps.estimated.at(name)).wrong();
      row.push_back(util::Table::num(best) + (best < y_best ? "*" : ""));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
