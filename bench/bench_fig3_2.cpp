// Regenerates Figure 3.2: log10(FP+FN) vs detection threshold for every
// Chapter 3 dataset, comparing raw-count thresholding (Y) with REDEEM's
// estimated attempts under the four error distributions. Expected
// shape: U-shaped curves; REDEEM flattens the bottom and shifts it left.

#include "bench_common.hpp"
#include "redeem_common.hpp"

#include <cmath>

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.25);
  bench::print_header(
      "Figure 3.2 — log10(FP+FN) vs threshold, per dataset",
      "Sampled at ~16 thresholds per series for readability.");

  for (const auto& spec : sim::chapter3_specs(scale)) {
    const auto d = sim::make_dataset(spec, 7);
    const auto sweeps = bench::run_redeem_sweeps(d, 11);

    std::cout << "-- " << spec.name << " (" << spec.genome_label << ")\n";
    util::Table table({"Threshold", "Y", "tIED", "wIED", "tUED", "wUED"});
    const std::size_t n = sweeps.thresholds.size();
    const std::size_t step = std::max<std::size_t>(1, n / 16);
    auto log_wrong = [](const eval::ThresholdPoint& p) {
      return util::Table::fixed(
          std::log10(static_cast<double>(p.wrong()) + 1.0), 2);
    };
    for (std::size_t i = 0; i < n; i += step) {
      table.add_row({util::Table::fixed(sweeps.thresholds[i], 1),
                     log_wrong(sweeps.observed[i]),
                     log_wrong(sweeps.estimated.at("tIED")[i]),
                     log_wrong(sweeps.estimated.at("wIED")[i]),
                     log_wrong(sweeps.estimated.at("tUED")[i]),
                     log_wrong(sweeps.estimated.at("wUED")[i])});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
