// Extension bench — the Sec. 3.5 combination: REDEEM then Reptile,
// against each method alone, across the repeat ladder D1/D2/D3. The
// hybrid should match Reptile on low-repeat data and REDEEM on
// high-repeat data (the paper's "superior both when sampling low repeat
// and highly-repetitive genomes"). All three rows come from the
// core::make_corrector registry.

#include "bench_common.hpp"

#include "core/registry.hpp"
#include "eval/correction_metrics.hpp"

using namespace ngs;

namespace {

struct AblationEntry {
  const char* name;
  const char* display;
  int k;  // 0 = method default / data-driven
};

constexpr AblationEntry kEntries[] = {
    {"reptile", "Reptile", 0},
    {"redeem", "REDEEM", 11},
    {"hybrid", "Hybrid", 0},
};

}  // namespace

int main() try {
  const double scale = bench::scale_or(0.5);
  bench::print_header(
      "Extension — hybrid (REDEEM -> Reptile) vs each method alone", "");

  util::Table table({"Data", "Repeats", "Method", "Sensitivity",
                     "Specificity", "Gain", "CPU(s)"});

  auto specs = sim::chapter3_specs(scale);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto d = sim::make_dataset(specs[i], 7);
    const std::string repeat_label =
        util::Table::percent(d.genome.repeat_fraction, 0);

    for (const auto& entry : kEntries) {
      core::CorrectorConfig config;
      config.genome_length = d.genome.sequence.size();
      config.k = entry.k;
      config.error_model = d.model;
      util::Timer timer;
      auto corrector = core::make_corrector(entry.name, config);
      corrector->build(d.sim.reads);
      core::CorrectionReport rep;
      const auto out = corrector->correct_all(d.sim.reads, rep);
      const auto m = eval::evaluate_correction(d.sim.reads, out);
      table.add_row({specs[i].name, repeat_label, entry.display,
                     util::Table::percent(m.sensitivity()),
                     util::Table::percent(m.specificity()),
                     util::Table::percent(m.gain()),
                     util::Table::fixed(timer.seconds(), 1)});
    }
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
