// Ablation: the sketch fraction (1/M) and number of rounds l trade-off
// of Sec. 4.5.2 — edge recall vs candidate-pair work. Larger M = smaller
// sketches = fewer candidate evaluations but a higher chance of missing
// a true edge; extra rounds win most of the misses back.

#include "bench_common.hpp"
#include "closet_common.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Ablation — sketch modulus M and rounds l",
      "Recall is measured against the densest configuration (M=2, l=3).");

  const auto d = bench::make_meta_dataset(
      "ablation", static_cast<std::size_t>(3000 * scale), 41);

  // Reference edge set from the densest sketching configuration.
  std::uint64_t reference_edges = 0;
  util::Table table({"M", "rounds", "Predicted pairs", "Unique pairs",
                     "Confirmed edges", "Recall", "Sketch time(s)"});
  struct Config {
    std::uint64_t m;
    int rounds;
  };
  const std::vector<Config> configs = {
      {2, 3}, {4, 3}, {8, 3}, {8, 1}, {16, 3}, {16, 1}, {32, 3}, {32, 1}};
  for (const auto& cfg : configs) {
    auto params = bench::standard_closet_params();
    params.thresholds = {0.90};
    params.sketch_mod = cfg.m;
    params.sketch_rounds = cfg.rounds;
    closet::Closet cl(params);
    const auto result = cl.run(d.sample.reads);
    if (reference_edges == 0) reference_edges = result.confirmed_edges;
    table.add_row(
        {std::to_string(cfg.m), std::to_string(cfg.rounds),
         util::Table::num(result.predicted_pair_records),
         util::Table::num(result.unique_candidate_pairs),
         util::Table::num(result.confirmed_edges),
         util::Table::percent(
             static_cast<double>(result.confirmed_edges) /
             static_cast<double>(std::max<std::uint64_t>(1, reference_edges))),
         util::Table::fixed(result.times.get("sketching"), 2)});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
