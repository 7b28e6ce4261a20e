// Extension bench — the full corrector landscape the dissertation
// surveys, side by side: SAP (Pevzner/Chaisson), HiTEC, SHREC, Reptile,
// REDEEM, and the Sec. 3.5 hybrid, on a low-repeat dataset (Ch. 2
// regime) and a high-repeat one (Ch. 3 regime). Every method is
// instantiated through core::make_corrector — adding a corrector to the
// registry adds a row here.

#include "bench_common.hpp"

#include "core/registry.hpp"
#include "eval/correction_metrics.hpp"

using namespace ngs;

namespace {

/// Row order and kmer override per method (0 = method default /
/// data-driven selection). Data, not dispatch: construction goes through
/// the registry.
struct ZooEntry {
  const char* name;
  const char* display;
  int k;
};

constexpr ZooEntry kZoo[] = {
    {"sap", "SAP", 11},     {"hitec", "HiTEC", 11}, {"shrec", "SHREC", 0},
    {"reptile", "Reptile", 0}, {"redeem", "REDEEM", 11}, {"hybrid", "Hybrid", 0},
};

void report(util::Table& table, const std::string& data,
            const std::string& method, const sim::Dataset& d,
            const std::vector<seq::Read>& corrected, double seconds) {
  const auto m = eval::evaluate_correction(d.sim.reads, corrected);
  table.add_row({data, method, util::Table::percent(m.sensitivity()),
                 util::Table::percent(m.specificity()),
                 util::Table::percent(m.gain()),
                 util::Table::fixed(m.eba() * 100.0, 3),
                 util::Table::fixed(seconds, 1)});
}

}  // namespace

int main() try {
  const double scale = bench::scale_or(0.2);
  bench::print_header(
      "Extension — corrector landscape (SAP / HiTEC / SHREC / Reptile / "
      "REDEEM / Hybrid)",
      "Low-repeat: Chapter 2 D2 analog. High-repeat: Chapter 3 D3 analog "
      "(80% repeat span).");

  util::Table table({"Data", "Method", "Sens", "Spec", "Gain", "EBA(%)",
                     "CPU(s)"});

  const auto low = sim::make_dataset(sim::chapter2_specs(scale)[1], 42);
  const auto high = sim::make_dataset(sim::chapter3_specs(scale)[2], 7);

  for (const auto* dp : {&low, &high}) {
    const auto& d = *dp;
    const std::string label = dp == &low ? "low-repeat" : "high-repeat";
    for (const auto& entry : kZoo) {
      core::CorrectorConfig config;
      config.genome_length = d.genome.sequence.size();
      config.k = entry.k;
      config.error_model = d.model;
      util::Timer t;
      auto corrector = core::make_corrector(entry.name, config);
      corrector->build(d.sim.reads);
      core::CorrectionReport rep;
      report(table, label, entry.display, d,
             corrector->correct_all(d.sim.reads, rep), t.seconds());
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
