// Regenerates Table 3.2: estimated kmer-position error probabilities
// q_i(a, b) at position i = 11, for the E. coli-like profile (tIED
// source) and the A. sp. ADP1-like profile (wIED source). The matrices
// are estimated exactly as in Sec. 3.4.1: simulate reads, map them back
// with the mismatch mapper, count per-position misreads from uniquely
// mapped reads, then decompose to kmer positions.

#include "bench_common.hpp"

#include "mapper/mismatch_mapper.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

using namespace ngs;

namespace {

void print_matrix(const std::string& title, const sim::MisreadMatrix& m) {
  std::cout << title << "\n";
  util::Table table({"x1e-2", "A", "C", "G", "T"});
  const char* bases = "ACGT";
  for (int a = 0; a < 4; ++a) {
    std::vector<std::string> row{std::string(1, bases[a])};
    for (int b = 0; b < 4; ++b) {
      row.push_back(util::Table::fixed(m[a][b] * 100.0, 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() try {
  const double scale = bench::scale_or(0.5);
  bench::print_header(
      "Table 3.2 — Estimated error probabilities q_i(.,.), kmer position "
      "i = 11 (1-based)",
      "");

  for (const auto& [label, profile] :
       {std::pair<std::string, sim::ErrorProfile>{
            "E. coli-like (tIED source)", sim::ErrorProfile::kIllumina},
        {"A. sp. ADP1-like (wIED source)",
         sim::ErrorProfile::kIlluminaAlternate}}) {
    util::Rng rng(11);
    sim::GenomeSpec gspec;
    gspec.length = static_cast<std::size_t>(60000 * scale);
    const auto genome = sim::simulate_genome(gspec, rng);
    const auto true_model =
        profile == sim::ErrorProfile::kIllumina
            ? sim::ErrorModel::illumina(36, 0.006)
            : sim::ErrorModel::illumina_alternate(36, 0.012);
    sim::ReadSimConfig cfg;
    cfg.read_length = 36;
    cfg.coverage = 40.0;
    const auto simulated =
        sim::simulate_reads(genome.sequence, true_model, cfg, rng);

    mapper::MismatchMapper m(genome.sequence, 9);
    const auto estimated = mapper::estimate_error_model(
        m, genome.sequence, simulated.reads, 3);
    const auto q = estimated.kmer_position_matrices(13);
    print_matrix(label, q[10]);  // 1-based position 11
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
