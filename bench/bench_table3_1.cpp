// Regenerates Table 3.1: the Chapter 3 experimental datasets — synthetic
// genomes with 20/50/80% repeat span (D1-D3), N. meningitidis-like and
// maize-like repeat-rich analogs (D4-D5), and a low-repeat E. coli-like
// run (D6).

#include "bench_common.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.5);
  bench::print_header("Table 3.1 — Chapter 3 experimental datasets", "");

  util::Table table({"Dataset", "Genome", "Genome length", "Repeat span",
                     "Coverage", "Number of reads", "Error rate"});
  for (const auto& spec : sim::chapter3_specs(scale)) {
    const auto d = sim::make_dataset(spec, 7);
    table.add_row({spec.name, spec.genome_label,
                   util::Table::num(d.genome.sequence.size()),
                   util::Table::percent(d.genome.repeat_fraction, 0),
                   util::Table::fixed(spec.read_config.coverage, 0) + "x",
                   util::Table::num(d.sim.reads.size()),
                   util::Table::percent(d.sim.realized_error_rate())});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
