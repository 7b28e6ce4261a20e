// Regenerates the Sec. 3.7 threshold-inference experiment: fit the
// Gamma + Normals + Uniform mixture to the estimated T_l, choose the
// number of normal components by BIC, and compare the model-chosen
// threshold with the oracle (sweep-optimal) threshold.

#include "bench_common.hpp"

#include "eval/kmer_classification.hpp"
#include "kspec/kspectrum.hpp"
#include "redeem/em_model.hpp"
#include "redeem/error_dist.hpp"
#include "redeem/threshold.hpp"

using namespace ngs;

int main() try {
  const double scale = bench::scale_or(0.25);
  bench::print_header(
      "Sec. 3.7 — Mixture-model threshold inference",
      "Oracle = threshold minimizing FP+FN against genome truth; the "
      "model sees no truth.");

  util::Table table({"Data", "Chosen G", "pi0", "Gamma(a,b)", "NB theta",
                     "Model threshold", "Oracle threshold",
                     "FP+FN @ model", "FP+FN @ oracle"});

  for (const auto& spec : sim::chapter3_specs(scale)) {
    const auto d = sim::make_dataset(spec, 7);
    const auto spectrum = kspec::KSpectrum::build(d.sim.reads, 11, false);
    const auto genome_spectrum = kspec::KSpectrum::build_from_sequence(
        d.genome.sequence, 11, true);
    const auto truth = eval::genome_truth(spectrum, genome_spectrum);
    const auto q = redeem::kmer_error_matrices(
        redeem::ErrorDistKind::kTrueIllumina, 11, d.model);
    const redeem::RedeemModel model(spectrum, q, {});

    util::Rng rng(3);
    const auto fit =
        redeem::fit_threshold_mixture(model.estimates(), {}, rng);

    const double cov = static_cast<double>(spectrum.total_instances()) /
                       std::max<double>(1.0, genome_spectrum.size());
    const auto thresholds = eval::linear_thresholds(cov * 1.6, 0.25);
    const auto sweep =
        eval::sweep_thresholds(model.estimates(), truth, thresholds);
    const auto oracle = eval::best_point(sweep);
    const auto at_model = eval::sweep_thresholds(
        model.estimates(), truth, {fit.threshold})[0];

    const double theta = fit.mu * fit.p / (1.0 - fit.p);
    table.add_row(
        {spec.name, std::to_string(fit.num_normals),
         util::Table::fixed(fit.pi_gamma, 2),
         '(' + util::Table::fixed(fit.alpha, 2) + "," +
             util::Table::fixed(fit.beta, 2) + ")",
         util::Table::fixed(theta, 1), util::Table::fixed(fit.threshold, 1),
         util::Table::fixed(oracle.threshold, 1),
         util::Table::num(at_model.wrong()),
         util::Table::num(oracle.wrong())});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return bench::scale_too_small(e);
}
