// Extension bench — CLOSET's quasi-clique clustering vs the baselines
// Chapter 4 argues against: single-linkage components (one spurious edge
// merges taxa) and CD-HIT-style greedy stars (length-biased
// representatives). All three consume comparable similarity evidence;
// ARI against species truth isolates the clustering strategy.

#include "bench_common.hpp"
#include "closet_common.hpp"

#include <set>

#include "closet/baselines.hpp"
#include "eval/ari.hpp"
#include "util/timer.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Extension — clustering strategy comparison (ARI vs species truth)",
      "Same validated edges feed CLOSET and single linkage; CD-HIT "
      "recomputes similarities greedily.");

  // "clean": hyper-variable gene. "noisy": 40% of the gene conserved —
  // reads straddling the conserved block score high across unrelated
  // taxa, the similarity ambiguity single linkage cannot survive.
  const auto clean = bench::make_meta_dataset(
      "clean", static_cast<std::size_t>(4000 * scale), 51);
  const auto noisy = bench::make_meta_dataset(
      "noisy", static_cast<std::size_t>(4000 * scale), 52,
      /*conserved_fraction=*/0.4, /*chimera_rate=*/0.02);

  util::Table table({"Dataset", "Method", "Threshold", "Clusters",
                     "ARI vs species", "Time(s)"});

  for (const auto* dp : {&clean, &noisy}) {
    const auto& d = *dp;
    const std::vector<std::uint32_t>& species = d.sample.species_of;
    for (const double t : {0.92, 0.85, 0.80}) {
    // CLOSET (one threshold at a time so timings are comparable).
    util::Timer closet_timer;
    auto params = bench::standard_closet_params();
    params.thresholds = {t};
    params.cmin = 0.5;
    closet::Closet cl(params);
    const auto result = cl.run(d.sample.reads);
    const auto closet_labels = closet::Closet::to_partition(
        result.levels[0].clusters, d.sample.reads.size());
    table.add_row(
        {d.name, "CLOSET quasi-clique", util::Table::percent(t, 0),
         util::Table::num(result.levels[0].resulting_clusters),
         util::Table::fixed(
             eval::adjusted_rand_index(closet_labels, species).ari, 3),
         util::Table::fixed(closet_timer.seconds(), 1)});

    // Single linkage over the same validated edges.
    util::Timer sl_timer;
    const auto sl_labels = closet::single_linkage_labels(
        result.edges, t, d.sample.reads.size());
    std::set<std::uint32_t> components(sl_labels.begin(), sl_labels.end());
    table.add_row(
        {d.name, "single linkage", util::Table::percent(t, 0),
         util::Table::num(components.size()),
         util::Table::fixed(
             eval::adjusted_rand_index(sl_labels, species).ari, 3),
         util::Table::fixed(sl_timer.seconds(), 1)});

    // CD-HIT-style greedy stars.
    util::Timer cdhit_timer;
    closet::CdHitParams cd;
    cd.threshold = t;
    const auto cd_labels = closet::cdhit_labels(d.sample.reads, cd);
    std::set<std::uint32_t> stars(cd_labels.begin(), cd_labels.end());
    table.add_row(
        {d.name, "CD-HIT greedy", util::Table::percent(t, 0),
         util::Table::num(stars.size()),
         util::Table::fixed(
             eval::adjusted_rand_index(cd_labels, species).ari, 3),
         util::Table::fixed(cdhit_timer.seconds(), 1)});
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
