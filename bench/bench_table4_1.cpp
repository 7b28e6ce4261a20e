// Regenerates Table 4.1: characteristics of the metagenomic datasets —
// read counts, data size, and min/avg/max read length.

#include "bench_common.hpp"
#include "closet_common.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header("Table 4.1 — Metagenomic dataset characteristics",
                      "16S amplicon pools from a 120-species taxonomy.");

  util::Table table({"", "No. reads", "Size [MB]",
                     "Read length (min/avg/max)", "Species present"});
  for (const auto& d : bench::standard_meta_datasets(scale)) {
    std::size_t min_len = ~std::size_t{0}, max_len = 0;
    std::uint64_t total = 0;
    for (const auto& r : d.sample.reads.reads) {
      min_len = std::min(min_len, r.bases.size());
      max_len = std::max(max_len, r.bases.size());
      total += r.bases.size();
    }
    std::vector<bool> present(d.taxonomy.num_species(), false);
    for (const auto s : d.sample.species_of) present[s] = true;
    std::size_t species = 0;
    for (const bool p : present) species += p;
    const double avg =
        static_cast<double>(total) /
        std::max<double>(1.0, static_cast<double>(d.sample.reads.size()));
    table.add_row(
        {d.name, util::Table::num(d.sample.reads.size()),
         util::Table::fixed(static_cast<double>(total) / 1e6, 1),
         std::to_string(min_len) + "/" + util::Table::fixed(avg, 0) + "/" +
             std::to_string(max_len),
         util::Table::num(species)});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
