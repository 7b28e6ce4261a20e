// Ablation: the Sec. 2.3 masked-sort replica index vs brute-force
// candidate enumeration for d-neighborhood retrieval — build time, query
// throughput, and index memory, across d and the chunk count c. This is
// the design decision DESIGN.md calls out (the paper argues the replica
// structure makes neighbor retrieval ~O(1) expected per hit).

#include "bench_common.hpp"

#include "kspec/kspectrum.hpp"
#include "kspec/neighborhood.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(1.0);
  bench::print_header(
      "Ablation — d-neighborhood retrieval strategies",
      "Queries: every spectrum kmer once. Enumerator memory is zero "
      "(searches the spectrum in place).");

  util::Rng rng(3);
  sim::GenomeSpec gspec;
  gspec.length = static_cast<std::size_t>(50000 * scale);
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 40.0;
  const auto simulated = sim::simulate_reads(genome.sequence, model, cfg, rng);
  const int k = 13;
  const auto spectrum = kspec::KSpectrum::build(simulated.reads, k, false);
  std::cout << "spectrum: " << spectrum.size() << " distinct " << k
            << "-mers\n\n";

  util::Table table({"Strategy", "d", "Build(s)", "Query(s)", "Neighbors",
                     "Index MB"});

  for (const int d : {1, 2}) {
    {
      kspec::CandidateEnumerator enumerator(spectrum);
      std::uint64_t found = 0;
      util::Timer timer;
      for (std::size_t i = 0; i < spectrum.size(); ++i) {
        enumerator.for_each_neighbor(spectrum.code_at(i), d,
                                     [&](seq::KmerCode, std::size_t) {
                                       ++found;
                                     });
      }
      table.add_row({"enumerate+binary-search", std::to_string(d), "0.00",
                     util::Table::fixed(timer.seconds(), 2),
                     util::Table::num(found), "0.0"});
    }
    for (const int c : (d == 1 ? std::vector<int>{2, 4, 6}
                               : std::vector<int>{3, 4, 6})) {
      util::Timer build_timer;
      kspec::MaskedSortIndex index(spectrum, c, d);
      const double build = build_timer.seconds();
      std::uint64_t found = 0;
      util::Timer timer;
      for (std::size_t i = 0; i < spectrum.size(); ++i) {
        index.for_each_neighbor(spectrum.code_at(i),
                                [&](seq::KmerCode, std::size_t) {
                                  ++found;
                                });
      }
      table.add_row({"masked-sort c=" + std::to_string(c), std::to_string(d),
                     util::Table::fixed(build, 2),
                     util::Table::fixed(timer.seconds(), 2),
                     util::Table::num(found),
                     util::Table::fixed(
                         static_cast<double>(index.memory_bytes()) / 1e6,
                         1)});
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
