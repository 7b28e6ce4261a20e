// Regenerates Table 4.4 / Sec. 4.5.2's ARI assessment: Adjusted Rand
// Index of CLOSET clusters against taxonomic ground truth at every rank,
// across a decreasing ladder of similarity thresholds. The paper's
// proposal: the threshold maximizing ARI at a rank is the right cutoff
// for that rank. Expected shape: species-rank ARI peaks at high
// thresholds and decays as clusters start to merge genera.

#include "bench_common.hpp"
#include "closet_common.hpp"

#include "eval/ari.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Table 4.4 — ARI of CLOSET clusters vs taxonomic truth",
      "Rows: similarity threshold; columns: taxonomy rank.");

  auto d = bench::make_meta_dataset(
      "Medium", static_cast<std::size_t>(4000 * scale), 31);

  auto params = bench::standard_closet_params();
  params.thresholds = {0.95, 0.92, 0.90, 0.85, 0.80, 0.75, 0.70};
  params.cmin = 0.5;
  closet::Closet cl(params);
  const auto result = cl.run(d.sample.reads);

  // Truth labels per rank.
  const std::size_t ranks = d.taxonomy.num_ranks();
  std::vector<std::vector<std::uint32_t>> truth(ranks);
  for (std::size_t rank = 1; rank < ranks; ++rank) {
    truth[rank].reserve(d.sample.species_of.size());
    for (const auto s : d.sample.species_of) {
      truth[rank].push_back(static_cast<std::uint32_t>(
          d.taxonomy.ancestor_at_rank(s, rank)));
    }
  }

  util::Table table({"Threshold", "Clusters", "ARI vs phylum",
                     "ARI vs genus", "ARI vs species"});
  for (const auto& level : result.levels) {
    const auto labels = closet::Closet::to_partition(
        level.clusters, d.sample.reads.size());
    std::vector<std::string> row{
        util::Table::percent(level.threshold, 0),
        util::Table::num(level.resulting_clusters)};
    for (std::size_t rank = 1; rank < ranks; ++rank) {
      row.push_back(util::Table::fixed(
          eval::adjusted_rand_index(labels, truth[rank]).ari, 3));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
