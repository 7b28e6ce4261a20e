// Regenerates Figure 3.3: histogram of REDEEM-estimated attempts T_l on
// the E. coli-like dataset (D6). Expected shape: a spike of erroneous
// kmers near zero-to-one, a dominant genomic peak near the kmer
// coverage, and a small alpha=2 shoulder at twice that.

#include "bench_common.hpp"

#include "kspec/kspectrum.hpp"
#include "redeem/em_model.hpp"
#include "redeem/error_dist.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.25);
  bench::print_header("Figure 3.3 — Histogram of estimated T_l (E. coli-like)",
                      "ASCII bars, 40 bins.");

  const auto spec = sim::chapter3_specs(scale)[5];  // D6
  const auto d = sim::make_dataset(spec, 7);
  const auto spectrum = kspec::KSpectrum::build(d.sim.reads, 11, false);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, d.model);
  const redeem::RedeemModel model(spectrum, q, {});

  const auto& t = model.estimates();
  // Display range: past the alpha=2 shoulder at twice the genomic peak
  // (the 96th percentile of distinct-kmer T sits inside the alpha=1
  // peak), without letting rare high-copy repeats stretch the axis.
  std::vector<double> sorted = t;
  std::sort(sorted.begin(), sorted.end());
  double max_t = 2.4 * sorted[sorted.size() * 96 / 100];
  max_t = std::max(max_t, 1.0);
  constexpr int kBins = 40;
  std::vector<std::uint64_t> bins(kBins, 0);
  for (const double v : t) {
    const int b = std::min(
        kBins - 1, static_cast<int>(v / max_t * kBins));
    ++bins[static_cast<std::size_t>(b)];
  }
  std::uint64_t peak = 1;
  for (const auto b : bins) peak = std::max(peak, b);

  util::Table table({"T_l range", "Count", "Histogram"});
  for (int b = 0; b < kBins; ++b) {
    const double lo = max_t * b / kBins;
    const double hi = max_t * (b + 1) / kBins;
    const auto width = static_cast<std::size_t>(
        60.0 * static_cast<double>(bins[static_cast<std::size_t>(b)]) /
        static_cast<double>(peak));
    table.add_row({util::Table::fixed(lo, 1) + "-" + util::Table::fixed(hi, 1),
                   util::Table::num(bins[static_cast<std::size_t>(b)]),
                   std::string(width, '#')});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
