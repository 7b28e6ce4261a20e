// Extension bench — the quantification task that motivates Chapter 4
// (Sec. 4.1): estimate taxonomic-unit abundances from cluster sizes and
// compare against the simulated truth, across clustering thresholds.
// Reported: total-variation error of the matched per-species profile and
// Bray-Curtis dissimilarity of the rank-abundance curves.

#include "bench_common.hpp"
#include "closet_common.hpp"

#include "eval/abundance.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Extension — species abundance profiling from CLOSET clusters",
      "Total variation: 0 = exact quantification; Bray-Curtis on "
      "rank-abundance curves.");

  const auto d = bench::make_meta_dataset(
      "profiling", static_cast<std::size_t>(5000 * scale), 71);

  auto params = bench::standard_closet_params();
  params.thresholds = {0.95, 0.90, 0.85, 0.80};
  params.cmin = 0.5;
  closet::Closet cl(params);
  const auto result = cl.run(d.sample.reads);

  const auto true_profile = eval::abundance_profile(d.sample.species_of);

  util::Table table({"Threshold", "Clusters", "TV error vs species",
                     "Bray-Curtis (rank curves)"});
  for (const auto& level : result.levels) {
    const auto labels = closet::Closet::to_partition(
        level.clusters, d.sample.reads.size());
    table.add_row(
        {util::Table::percent(level.threshold, 0),
         util::Table::num(level.resulting_clusters),
         util::Table::fixed(
             eval::matched_abundance_error(labels, d.sample.species_of), 3),
         util::Table::fixed(
             eval::bray_curtis(eval::abundance_profile(labels),
                               true_profile),
             3)});
  }
  table.print(std::cout);
  std::cout << "\nSpecies present: "
            << util::Table::num(true_profile.size())
            << "; most abundant species holds "
            << util::Table::percent(true_profile.front())
            << " of the sample.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
