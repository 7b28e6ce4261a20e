// Regenerates Table 4.2: quantities of data generated at each CLOSET
// stage — predicted / unique / confirmed edges, and clusters processed /
// resulting at each similarity threshold. Expected shape: sketching
// evaluates a vanishing fraction of all O(n^2) pairs; lower thresholds
// process and produce more clusters.

#include "bench_common.hpp"
#include "closet_common.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Table 4.2 — Data quantities per CLOSET stage",
      "Fraction = unique candidate pairs / all possible pairs.");

  const auto datasets = bench::standard_meta_datasets(scale);
  std::vector<closet::ClosetResult> results;
  util::Table head({"", "Predicted edges", "Unique edges", "Confirmed edges",
                    "Pair fraction"});
  for (const auto& d : datasets) {
    closet::Closet cl(bench::standard_closet_params());
    results.push_back(cl.run(d.sample.reads));
    const auto& r = results.back();
    const double n = static_cast<double>(d.sample.reads.size());
    head.add_row({d.name, util::Table::num(r.predicted_pair_records),
                  util::Table::num(r.unique_candidate_pairs),
                  util::Table::num(r.confirmed_edges),
                  util::Table::fixed(
                      static_cast<double>(r.unique_candidate_pairs) /
                          (n * (n - 1.0) / 2.0),
                      6)});
  }
  head.print(std::cout);
  std::cout << "\n";

  util::Table clusters({"", "t1", "Clusters processed", "Resulting clusters"});
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    for (const auto& level : results[i].levels) {
      clusters.add_row({datasets[i].name,
                        util::Table::percent(level.threshold, 0),
                        util::Table::num(level.clusters_processed),
                        util::Table::num(level.resulting_clusters)});
    }
  }
  clusters.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
