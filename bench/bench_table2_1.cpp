// Regenerates Table 2.1: experimental dataset characteristics for the
// Chapter 2 datasets D1-D6 (scaled analogs; see DESIGN.md).

#include "bench_common.hpp"

#include <algorithm>

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.5);
  bench::print_header(
      "Table 2.1 — Experimental Datasets (Chapter 2 analogs)",
      "Genome lengths scaled by " + util::Table::fixed(scale, 2) +
          " (NGS_BENCH_SCALE); coverage/read-length/error follow the paper.");

  util::Table table({"Data", "Genome", "Read Length", "Number of Reads",
                     "Reads w/ N", "Cov.", "Error rate"});
  for (const auto& spec : sim::chapter2_specs(scale)) {
    const auto d = sim::make_dataset(spec, 42);
    std::uint64_t reads_with_n = 0;
    for (const auto& r : d.sim.reads.reads) {
      reads_with_n +=
          std::any_of(r.bases.begin(), r.bases.end(),
                      [](char c) { return c == 'N'; });
    }
    table.add_row(
        {spec.name, spec.genome_label,
         std::to_string(spec.read_config.read_length) + "bp",
         util::Table::num(d.sim.reads.size()),
         util::Table::percent(
             d.sim.reads.size() == 0
                 ? 0.0
                 : static_cast<double>(reads_with_n) /
                       static_cast<double>(d.sim.reads.size())),
         util::Table::fixed(spec.read_config.coverage, 0) + "x",
         util::Table::percent(d.sim.realized_error_rate())});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
