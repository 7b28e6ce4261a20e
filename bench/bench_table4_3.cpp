// Regenerates Table 4.3: run time per CLOSET stage (sketching,
// validation, filtering, clustering) on each dataset, plus the MapReduce
// engine's per-phase breakdown. Absolute numbers reflect this machine
// (single node) rather than the paper's 32-node Hadoop cluster; the
// expected shape — mild growth with input size, clustering cost growing
// as thresholds drop — carries over.

#include "bench_common.hpp"
#include "closet_common.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header("Table 4.3 — Run time (seconds) per CLOSET stage", "");

  util::Table table({"Stage", "Small", "Medium", "Large"});
  std::vector<closet::ClosetResult> results;
  for (const auto& d : bench::standard_meta_datasets(scale)) {
    closet::Closet cl(bench::standard_closet_params());
    results.push_back(cl.run(d.sample.reads));
  }
  for (const char* stage :
       {"sketching", "validation", "filtering", "clustering"}) {
    std::vector<std::string> row{stage};
    for (const auto& r : results) {
      row.push_back(util::Table::fixed(r.times.get(stage), 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\nMapReduce engine phase breakdown (seconds, summed over "
               "jobs):\n";
  util::Table engine({"Phase", "Small", "Medium", "Large"});
  engine.add_row({"map",
                  util::Table::fixed(results[0].counters.map_seconds, 2),
                  util::Table::fixed(results[1].counters.map_seconds, 2),
                  util::Table::fixed(results[2].counters.map_seconds, 2)});
  engine.add_row(
      {"shuffle", util::Table::fixed(results[0].counters.shuffle_seconds, 2),
       util::Table::fixed(results[1].counters.shuffle_seconds, 2),
       util::Table::fixed(results[2].counters.shuffle_seconds, 2)});
  engine.add_row(
      {"reduce", util::Table::fixed(results[0].counters.reduce_seconds, 2),
       util::Table::fixed(results[1].counters.reduce_seconds, 2),
       util::Table::fixed(results[2].counters.reduce_seconds, 2)});
  engine.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
