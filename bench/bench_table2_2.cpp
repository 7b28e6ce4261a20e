// Regenerates Table 2.2: mapping each dataset to its genome with the
// RMAP-like mismatch mapper (unique / ambiguous percentages).

#include <algorithm>

#include "bench_common.hpp"
#include "mapper/mismatch_mapper.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.35);
  bench::print_header(
      "Table 2.2 — Mapping each dataset to its genome (RMAP analog)",
      "Allowed mismatches follow the paper: 5 for 36bp, 10 for 47bp, "
      "10/15 for 101bp reads.");

  util::Table table({"Data", "Allowed mm", "Number of reads",
                     "Uniquely mapped", "Ambiguously mapped", "Unmapped"});
  const auto specs = sim::chapter2_specs(scale);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto d = sim::make_dataset(specs[i], 42);
    std::vector<int> budgets;
    if (specs[i].read_config.read_length <= 36) {
      budgets = {5};
    } else if (specs[i].read_config.read_length <= 47) {
      budgets = {10};
    } else {
      budgets = {10, 15};
    }
    for (const int mm : budgets) {
      const int seed_len = std::clamp(
          mapper::MismatchMapper::seed_length_for(
              specs[i].read_config.read_length, mm),
          6, 12);
      mapper::MismatchMapper m(d.genome.sequence, seed_len);
      const auto stats = mapper::map_read_set(m, d.sim.reads, mm);
      const double n = static_cast<double>(stats.total);
      table.add_row({specs[i].name, std::to_string(mm),
                     util::Table::num(stats.total),
                     util::Table::percent(stats.unique / n),
                     util::Table::percent(stats.ambiguous / n),
                     util::Table::percent(stats.unmapped / n)});
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
