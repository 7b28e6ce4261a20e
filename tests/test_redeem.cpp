#include <gtest/gtest.h>

#include <algorithm>

#include "eval/correction_metrics.hpp"
#include "eval/kmer_classification.hpp"
#include "redeem/corrector.hpp"
#include "redeem/em_model.hpp"
#include "redeem/error_dist.hpp"
#include "redeem/threshold.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

struct RepeatSetup {
  std::string genome;
  sim::SimulatedReads sim;
  sim::ErrorModel model;
};

RepeatSetup make_repeat_setup(double repeat_fraction, std::uint64_t seed,
                              double err = 0.008, double coverage = 50.0,
                              std::size_t repeat_len = 500) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  if (repeat_fraction > 0.0) {
    const auto span =
        static_cast<std::size_t>(repeat_fraction * gspec.length);
    gspec.repeats = {{repeat_len, span / repeat_len, 0.0}};
  }
  RepeatSetup s;
  s.genome = sim::simulate_genome(gspec, rng).sequence;
  s.model = sim::ErrorModel::illumina(36, err);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  s.sim = sim::simulate_reads(s.genome, s.model, cfg, rng);
  return s;
}

TEST(ErrorDist, NamesAndShapes) {
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  for (const auto kind :
       {redeem::ErrorDistKind::kTrueIllumina, redeem::ErrorDistKind::kWrongIllumina,
        redeem::ErrorDistKind::kTrueUniform, redeem::ErrorDistKind::kWrongUniform}) {
    const auto q = redeem::kmer_error_matrices(kind, 11, model);
    ASSERT_EQ(q.size(), 11u);
    for (const auto& m : q) {
      for (int a = 0; a < 4; ++a) {
        double sum = 0.0;
        for (int b = 0; b < 4; ++b) sum += m[a][b];
        ASSERT_NEAR(sum, 1.0, 1e-9);
      }
    }
  }
  EXPECT_STREQ(redeem::to_string(redeem::ErrorDistKind::kTrueIllumina),
               "tIED");
  EXPECT_STREQ(redeem::to_string(redeem::ErrorDistKind::kWrongUniform),
               "wUED");
}

TEST(RedeemModel, MassIsConserved) {
  const auto setup = make_repeat_setup(0.0, 3);
  const auto spectrum = kspec::KSpectrum::build(setup.sim.reads, 11, false);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, setup.model);
  redeem::RedeemParams params;
  const redeem::RedeemModel model(spectrum, q, params);
  // EM redistributes counts but conserves the total number of attempts.
  double total_t = 0.0, total_y = 0.0;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    total_t += model.estimates()[i];
    total_y += spectrum.count_at(i);
  }
  EXPECT_NEAR(total_t / total_y, 1.0, 1e-6);
  EXPECT_GT(model.iterations_run(), 1);
}

TEST(RedeemModel, ShiftsMassFromErrorsToSources) {
  // The drain from an error kmer is proportional to T_source * pe, so it
  // concentrates on error kmers adjacent to repeats (the point of Ch. 3).
  const auto setup = make_repeat_setup(0.6, 5, 0.01, 60.0, 400);
  const auto spectrum = kspec::KSpectrum::build(setup.sim.reads, 11, false);
  const auto genome_spec =
      kspec::KSpectrum::build_from_sequence(setup.genome, 11, true);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, setup.model);
  const redeem::RedeemModel model(spectrum, q, {});
  const auto truth = eval::genome_truth(spectrum, genome_spec);

  double t_bad = 0, y_bad = 0, t_good = 0, y_good = 0;
  double t_bad_hi = 0, y_bad_hi = 0;  // repeat-shadow errors (Y >= 4)
  std::size_t n_bad = 0, n_good = 0;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    if (truth[i]) {
      t_good += model.estimates()[i];
      y_good += spectrum.count_at(i);
      ++n_good;
    } else {
      t_bad += model.estimates()[i];
      y_bad += spectrum.count_at(i);
      ++n_bad;
      if (spectrum.count_at(i) >= 4) {
        t_bad_hi += model.estimates()[i];
        y_bad_hi += spectrum.count_at(i);
      }
    }
  }
  ASSERT_GT(n_bad, 100u);
  ASSERT_GT(n_good, 100u);
  // Directional shift: errors lose mass, genomic kmers gain it.
  EXPECT_LT(t_bad, y_bad - 0.02 * static_cast<double>(n_bad));
  EXPECT_GT(t_good, y_good);
  // The moderately-observed error kmers in repeat shadows — the ones raw
  // Y-thresholding misclassifies — must drain substantially.
  ASSERT_GT(y_bad_hi, 0.0);
  EXPECT_LT(t_bad_hi, y_bad_hi * 0.8);
}

TEST(RedeemModel, BeatsObservedCountsOnRepeats) {
  // The headline claim of Chapter 3: thresholding on T yields fewer
  // wrong predictions than thresholding on Y, especially with repeats.
  const auto setup = make_repeat_setup(0.5, 7);
  const auto spectrum = kspec::KSpectrum::build(setup.sim.reads, 11, false);
  const auto genome_spec =
      kspec::KSpectrum::build_from_sequence(setup.genome, 11, true);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, setup.model);
  const redeem::RedeemModel model(spectrum, q, {});
  const auto truth = eval::genome_truth(spectrum, genome_spec);

  const auto thresholds = eval::linear_thresholds(60.0, 0.5);
  const auto y_sweep =
      eval::sweep_thresholds(model.observed(), truth, thresholds);
  const auto t_sweep =
      eval::sweep_thresholds(model.estimates(), truth, thresholds);
  const auto y_best = eval::best_point(y_sweep);
  const auto t_best = eval::best_point(t_sweep);
  EXPECT_LT(t_best.wrong(), y_best.wrong())
      << "T-best " << t_best.wrong() << " vs Y-best " << y_best.wrong();
}

TEST(RedeemModel, BasePosteriorIsDistribution) {
  const auto setup = make_repeat_setup(0.2, 9);
  const auto spectrum = kspec::KSpectrum::build(setup.sim.reads, 11, false);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, setup.model);
  const redeem::RedeemModel model(spectrum, q, {});
  // Each kmer adds one distribution over the four bases at each of its
  // k offsets past `offset`, and nothing before them.
  constexpr std::size_t offset = 3;
  for (std::size_t l = 0; l < std::min<std::size_t>(50, spectrum.size());
       ++l) {
    std::vector<std::array<double, 4>> acc(offset + 11,
                                           std::array<double, 4>{});
    model.accumulate_posteriors(l, acc, offset);
    for (std::size_t p = 0; p < acc.size(); ++p) {
      const double sum = acc[p][0] + acc[p][1] + acc[p][2] + acc[p][3];
      ASSERT_NEAR(sum, p < offset ? 0.0 : 1.0, 1e-9)
          << "l=" << l << " p=" << p;
    }
  }
}

TEST(RedeemCorrector, CorrectsErrorsInRepeatRichData) {
  const auto setup = make_repeat_setup(0.7, 11, 0.01, 60.0, 400);
  const auto spectrum = kspec::KSpectrum::build(setup.sim.reads, 11, false);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, setup.model);
  const redeem::RedeemModel model(spectrum, q, {});
  redeem::RedeemCorrector corrector(model, {});
  redeem::RedeemCorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto metrics = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(stats.reads_flagged, 0u);
  EXPECT_GT(metrics.gain(), 0.3)
      << "TP=" << metrics.tp << " FP=" << metrics.fp << " FN=" << metrics.fn;
  EXPECT_GT(metrics.specificity(), 0.99);
}

TEST(RedeemCorrector, ShortReadsPassThrough) {
  const auto setup = make_repeat_setup(0.0, 13);
  const auto spectrum = kspec::KSpectrum::build(setup.sim.reads, 11, false);
  const auto q = redeem::kmer_error_matrices(
      redeem::ErrorDistKind::kTrueIllumina, 11, setup.model);
  const redeem::RedeemModel model(spectrum, q, {});
  redeem::RedeemCorrector corrector(model, {});
  redeem::RedeemCorrectionStats stats;
  const seq::Read tiny{"t", "ACGT", {}};
  EXPECT_EQ(corrector.correct(tiny, stats).bases, "ACGT");
}

TEST(ThresholdMixture, RecoversPlantedMixture) {
  // Synthetic T values: error mass near 1, genomic peaks near 40 and 80.
  util::Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 6000; ++i) values.push_back(rng.gamma(1.5, 1.2));
  for (int i = 0; i < 9000; ++i) values.push_back(rng.normal(40.0, 6.0));
  for (int i = 0; i < 2000; ++i) values.push_back(rng.normal(80.0, 9.0));
  for (auto& v : values) v = std::max(v, 0.01);

  redeem::MixtureParams params;
  params.g_min = 1;
  params.g_max = 3;
  const auto fit = redeem::fit_threshold_mixture(values, params, rng);
  EXPECT_GE(fit.num_normals, 1);
  // The classification boundary must separate the error mass (~<10) from
  // the first genomic peak (~40).
  EXPECT_GT(fit.threshold, 3.0);
  EXPECT_LT(fit.threshold, 32.0);
  // Component weights should roughly reflect the planted proportions.
  EXPECT_NEAR(fit.pi_gamma != 0.0 ? fit.pi_gamma : fit.weights[0],
              6000.0 / 17000.0, 0.12);
}

TEST(ThresholdMixture, RejectsEmptyInput) {
  util::Rng rng(1);
  EXPECT_THROW(redeem::fit_threshold_mixture({}, {}, rng),
               std::invalid_argument);
}

TEST(ThresholdMixture, SubsamplingIsStable) {
  util::Rng rng(19);
  std::vector<double> values;
  for (int i = 0; i < 30000; ++i) values.push_back(rng.gamma(1.5, 1.0));
  for (int i = 0; i < 50000; ++i) values.push_back(rng.normal(50.0, 7.0));
  for (auto& v : values) v = std::max(v, 0.01);
  redeem::MixtureParams params;
  params.g_max = 2;
  params.max_values = 10000;
  const auto fit = redeem::fit_threshold_mixture(values, params, rng);
  EXPECT_GT(fit.threshold, 4.0);
  EXPECT_LT(fit.threshold, 40.0);
}

}  // namespace
