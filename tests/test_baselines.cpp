// Tests for the prior-art baselines the dissertation surveys: the SAP
// corrector and HiTEC-style witness correction.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/hitec.hpp"
#include "baselines/sap.hpp"
#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "eval/correction_metrics.hpp"
#include "io/fastx.hpp"
#include "seq/kmer.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

struct Setup {
  std::string genome;
  sim::SimulatedReads sim;
};

Setup make_setup(std::uint64_t seed, double err = 0.008,
                 double coverage = 50.0) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 15000;
  Setup s;
  s.genome = sim::simulate_genome(gspec, rng).sequence;
  const auto model = sim::ErrorModel::illumina(36, err);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  s.sim = sim::simulate_reads(s.genome, model, cfg, rng);
  return s;
}

/// Corrects `reads` with the registered `method` at `k`, built from the
/// same reads, through Corrector::correct_all.
std::vector<seq::Read> correct_with(const std::string& method, int k,
                                    const seq::ReadSet& reads,
                                    core::CorrectionReport& report) {
  core::CorrectorConfig config;
  config.k = k;
  const auto corrector = core::make_corrector(method, config);
  corrector->build(reads);
  return corrector->correct_all(reads, report);
}

TEST(Sap, WeakKmerCounting) {
  const auto setup = make_setup(3);
  baselines::SapParams params;
  params.k = 11;
  params.solid_threshold = 3;
  baselines::SapCorrector corrector(
      kspec::KSpectrum::build(setup.sim.reads, params.k, params.both_strands),
      params);
  // An error-free genomic window at decent coverage has no weak kmers.
  EXPECT_EQ(corrector.weak_kmers(setup.genome.substr(1000, 36)), 0);
  // Random sequence is all-weak.
  util::Rng rng(4);
  const auto junk = sim::random_sequence(36, {0.25, 0.25, 0.25, 0.25}, rng);
  EXPECT_EQ(corrector.weak_kmers(junk), 36 - 11 + 1);
}

TEST(Sap, FixesMostReads) {
  const auto setup = make_setup(5);
  core::CorrectionReport report;
  const auto corrected = correct_with("sap", 11, setup.sim.reads, report);
  const auto m = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(m.gain(), 0.4) << "TP=" << m.tp << " FP=" << m.fp;
  EXPECT_GT(m.specificity(), 0.995);
  EXPECT_GT(report.extra("reads_fixed"), 0u);
  EXPECT_GT(report.extra("reads_clean"), report.extra("reads_unfixable"));
}

TEST(Sap, CleanReadUntouched) {
  const auto setup = make_setup(7, 1e-7);
  core::CorrectionReport report;
  const auto corrected = correct_with("sap", 11, setup.sim.reads, report);
  const auto m = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(m.specificity(), 0.9995);
}

// SAP's greedy loop as it was before window codes, prefix sums, pruning
// and the solid set: every covering window re-encoded from characters
// and its count looked up in the spectrum SAP was built from, every
// position and alternative base tried in order, the first strictly
// larger delta kept. `ties` counts candidates that equalled the best
// positive delta, so the test can show the rule's tie-break ran.
seq::Read reference_correct(const kspec::KSpectrum& spectrum,
                            const baselines::SapParams& params,
                            const seq::Read& read, baselines::SapStats& stats,
                            std::size_t& ties) {
  const auto k = static_cast<std::size_t>(params.k);
  const auto weak_window = [&](const std::string& bases, std::size_t s) {
    const auto code = seq::encode_kmer(std::string_view(bases).substr(s, k));
    return !code || spectrum.count(*code) < params.solid_threshold;
  };
  const auto weak_covering = [&](const std::string& bases, std::size_t pos) {
    if (bases.size() < k) return 0;
    const std::size_t lo = pos >= k - 1 ? pos - (k - 1) : 0;
    const std::size_t hi = std::min(pos, bases.size() - k);
    int weak_count = 0;
    for (std::size_t s = lo; s <= hi; ++s) weak_count += weak_window(bases, s);
    return weak_count;
  };

  seq::Read out = read;
  int weak = 0;
  for (std::size_t s = 0; s + k <= out.bases.size(); ++s) {
    weak += weak_window(out.bases, s);
  }
  if (weak == 0) {
    ++stats.reads_clean;
    return out;
  }
  for (int edit = 0; edit < params.max_edits && weak > 0; ++edit) {
    int best_delta = 0;
    std::size_t best_pos = 0;
    char best_base = 0;
    for (std::size_t pos = 0; pos < out.bases.size(); ++pos) {
      const char original = out.bases[pos];
      const int before = weak_covering(out.bases, pos);
      if (before == 0) continue;
      for (const char b : {'A', 'C', 'G', 'T'}) {
        if (b == original) continue;
        out.bases[pos] = b;
        const int delta = before - weak_covering(out.bases, pos);
        if (delta > best_delta) {
          best_delta = delta;
          best_pos = pos;
          best_base = b;
        } else if (delta > 0 && delta == best_delta) {
          ++ties;
        }
      }
      out.bases[pos] = original;
    }
    if (best_base == 0) break;
    out.bases[best_pos] = best_base;
    ++stats.bases_changed;
    weak -= best_delta;
  }
  if (weak == 0) {
    ++stats.reads_fixed;
  } else {
    ++stats.reads_unfixable;
  }
  return out;
}

/// `count` reads of 0 to 3k bases from a short random genome, on both
/// strands, so their k-mers recur often enough to be solid at every
/// tested threshold. Bases are substituted at `error_rate`; 2 % become
/// N or another non-ACGT byte and 5 % lowercase.
seq::ReadSet greedy_reads(util::Rng& rng, int k, double error_rate,
                          std::size_t count) {
  const auto max_len = static_cast<std::size_t>(3 * k);
  const auto genome = sim::random_sequence(max_len + 20 + rng.below(60),
                                           {0.25, 0.25, 0.25, 0.25}, rng);
  static const std::string kOther = "NNNNn.-RY*\x80\xff";
  seq::ReadSet reads;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = rng.below(max_len + 1);
    std::string bases = genome.substr(rng.below(genome.size() - len + 1), len);
    if (rng.bernoulli(0.5)) bases = seq::reverse_complement(bases);
    for (char& c : bases) {
      if (rng.bernoulli(error_rate)) {
        c = seq::code_to_base(static_cast<std::uint8_t>(
            seq::base_to_code(c) + 1 + rng.below(3)));
      }
      if (rng.bernoulli(0.02)) {
        c = kOther[rng.below(kOther.size())];
      } else if (rng.bernoulli(0.05)) {
        c = static_cast<char>(c - 'A' + 'a');
      }
    }
    reads.reads.push_back(
        {std::to_string(i), bases, std::vector<std::uint8_t>(len, 30)});
  }
  return reads;
}

/// Seven 38-base reads at k = 32 around runs of T: four hold exactly one
/// all-T 32-mer, which the spectrum therefore counts 4 times, and three
/// hold a run of 32 with one other base, which one substitution turns
/// into it. The all-T 32-mer's code, 2^64 - 1, is the solid set's
/// empty-slot key.
seq::ReadSet all_t_reads() {
  const std::string run(32, 'T');
  seq::ReadSet reads;
  const auto add = [&reads](const std::string& bases) {
    reads.reads.push_back(
        {"all_t", bases, std::vector<std::uint8_t>(bases.size(), 30)});
  };
  for (const char* left : {"ACG", "CAG", "GGA", "CCA"}) add(left + run + "GCA");
  for (const std::size_t pos : {0ul, 13ul, 31ul}) {
    std::string bases = "ACG" + run + "GCA";
    bases[3 + pos] = pos == 13 ? 'N' : 'C';
    add(bases);
  }
  return reads;
}

// The rewritten correct() against the reference loop above, read for
// read on bases and SapStats, over N's, lowercase and other non-ACGT
// bytes, reads of 0 to 3k bases, every k the packed path special-cases
// (1, 2, 32) and the defaults around 12, thresholds (M = 0 makes every
// ACGT window solid) and edit budgets that make ties and multi-round
// edits common, runs of T whose all-T 32-mer is the solid set's
// empty-slot key, and one read longer than 65,535 bases. The same reads
// then go through CorrectionPipeline as FASTQ at 1 and 4 threads.
TEST(Sap, MatchesReferenceGreedy) {
  util::Rng rng(20240917);
  std::size_t ties = 0;
  std::size_t multi_edit_reads = 0;
  std::size_t ambiguous_fixed = 0;
  const auto compare = [&](const kspec::KSpectrum& spectrum,
                           const baselines::SapCorrector& sap,
                           const seq::ReadSet& reads) {
    baselines::SapCorrector::Scratch scratch;
    baselines::SapStats fast_stats;
    baselines::SapStats ref_stats;
    for (const auto& read : reads.reads) {
      const auto changed = ref_stats.bases_changed;
      const auto expected =
          reference_correct(spectrum, sap.params(), read, ref_stats, ties);
      const auto got = sap.correct(read, fast_stats, scratch);
      ASSERT_EQ(got.bases, expected.bases)
          << "k=" << sap.params().k << " M=" << sap.params().solid_threshold
          << " max_edits=" << sap.params().max_edits << " read " << read.id
          << " " << read.bases;
      multi_edit_reads += ref_stats.bases_changed - changed > 1;
      for (std::size_t i = 0; i < read.bases.size(); ++i) {
        ambiguous_fixed += seq::is_ambiguous(read.bases[i]) &&
                           seq::is_acgt(got.bases[i]);
      }
    }
    EXPECT_EQ(fast_stats.reads_clean, ref_stats.reads_clean);
    EXPECT_EQ(fast_stats.reads_fixed, ref_stats.reads_fixed);
    EXPECT_EQ(fast_stats.reads_unfixable, ref_stats.reads_unfixable);
    EXPECT_EQ(fast_stats.bases_changed, ref_stats.bases_changed);
  };

  for (const int k : {1, 2, 11, 12, 31, 32}) {
    seq::ReadSet reads;
    for (const double error_rate : {0.01, 0.1, 0.45}) {
      auto part = greedy_reads(rng, k, error_rate, 120);
      for (auto& r : part.reads) reads.reads.push_back(std::move(r));
    }
    if (k == 32) {
      for (auto& r : all_t_reads().reads) reads.reads.push_back(std::move(r));
    }
    const auto spectrum = kspec::KSpectrum::build(reads, k, true);
    if (k == 32) {
      // The all-T 32-mer is solid at M = 3 and weak at M = 10.
      const std::string all_t(32, 'T');
      EXPECT_EQ(baselines::SapCorrector(spectrum, {k, 3, 3}).weak_kmers(all_t),
                0);
      EXPECT_EQ(baselines::SapCorrector(spectrum, {k, 10, 3}).weak_kmers(all_t),
                1);
    }
    for (const std::uint32_t threshold : {0u, 1u, 3u, 10u}) {
      for (const int max_edits : {0, 1, 3, 40}) {
        const baselines::SapCorrector sap(
            spectrum, baselines::SapParams{k, threshold, max_edits, true});
        compare(spectrum, sap, reads);
        if (HasFatalFailure()) return;
      }
    }

    // The pipeline reads the same bytes back from FASTQ and corrects them
    // with the sap defaults (M = 3, 3 edits) at this k.
    const baselines::SapParams defaults{k, 3, 3};
    std::vector<seq::Read> expected;
    baselines::SapStats stats;
    std::size_t unused_ties = 0;
    for (const auto& read : reads.reads) {
      expected.push_back(
          reference_correct(spectrum, defaults, read, stats, unused_ties));
    }
    std::ostringstream input;
    io::write_fastq(input, reads);
    std::ostringstream want;
    io::write_fastq(want, std::span<const seq::Read>(expected));
    for (const std::size_t threads : {1ul, 4ul}) {
      core::CorrectorConfig config;
      config.k = k;
      core::PipelineOptions options;
      options.threads = threads;
      options.batch_size = 97;
      ASSERT_NE(reads.size() % options.batch_size, 0u);
      core::CorrectionPipeline pipeline(core::make_corrector("sap", config),
                                        options);
      std::ostringstream out;
      const auto result = pipeline.run(
          [text = input.str()] {
            return std::make_unique<std::istringstream>(text);
          },
          out);
      EXPECT_EQ(result.input.reads, reads.size());
      EXPECT_EQ(out.str(), want.str()) << "k=" << k << " t=" << threads;
      EXPECT_EQ(result.report.extra("reads_fixed"), stats.reads_fixed);
      EXPECT_EQ(result.report.extra("reads_clean"), stats.reads_clean);
      EXPECT_EQ(result.report.extra("reads_unfixable"),
                stats.reads_unfixable);
    }
  }

  // One read past 65,535 bases: a short genome repeated with errors and
  // N's, so its own k-mers are solid and each error is a weak run.
  util::Rng long_rng(77);
  auto reads = greedy_reads(long_rng, 12, 0.01, 200);
  std::string unit = sim::random_sequence(500, {0.25, 0.25, 0.25, 0.25},
                                          long_rng);
  std::string bases;
  while (bases.size() <= 70000) bases += unit;
  for (char& c : bases) {
    if (long_rng.bernoulli(0.002)) c = 'N';
    if (long_rng.bernoulli(0.002)) c = c == 'A' ? 'C' : 'A';
  }
  reads.reads.push_back(
      {"long", bases, std::vector<std::uint8_t>(bases.size(), 30)});
  const auto spectrum = kspec::KSpectrum::build(reads, 12, true);
  for (const std::uint32_t threshold : {0u, 1u, 3u, 10u}) {
    for (const int max_edits : {0, 1, 3}) {
      compare(spectrum,
              baselines::SapCorrector(
                  spectrum, baselines::SapParams{12, threshold, max_edits}),
              reads);
      if (HasFatalFailure()) return;
    }
  }

  EXPECT_GT(ties, 0u);
  EXPECT_GT(multi_edit_reads, 0u);
  EXPECT_GT(ambiguous_fixed, 0u);
}

// SAP keeps only its solid codes: neither the corrector nor the adapter
// holds a view of the spectrum it was built from, so the mapping behind
// a loaded index (here arrays that their keepalive owns) is released
// before pass 2, and correction never reads it again.
TEST(Sap, DropsItsSpectrum) {
  const auto setup = make_setup(13);
  const auto owned = kspec::KSpectrum::build(setup.sim.reads, 12, true);
  struct Arrays {
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
  };
  auto keepalive = std::make_shared<Arrays>(
      Arrays{{owned.codes().begin(), owned.codes().end()},
             {owned.counts().begin(), owned.counts().end()}});
  const auto view = [&] {
    return kspec::KSpectrum::adopt_external(
        keepalive->codes, keepalive->counts, {}, owned.k(),
        owned.total_instances(), 0, keepalive);
  };
  const baselines::SapCorrector sap(view(), baselines::SapParams{});
  EXPECT_EQ(keepalive.use_count(), 1);
  const auto adapter = core::make_corrector("sap", core::CorrectorConfig{});
  adapter->build_from_spectrum(view(), core::InputSummary{});
  EXPECT_EQ(keepalive.use_count(), 1);
  keepalive.reset();  // frees the arrays

  const baselines::SapCorrector reference(owned, baselines::SapParams{});
  seq::ReadSet reads;
  reads.reads.assign(setup.sim.reads.reads.begin(),
                     setup.sim.reads.reads.begin() + 500);
  core::CorrectionReport report;
  const auto corrected = adapter->correct_all(reads, report);
  baselines::SapCorrector::Scratch scratch;
  baselines::SapStats stats;
  std::size_t changed = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto want = reference.correct(reads.reads[i], stats, scratch);
    EXPECT_EQ(sap.correct(reads.reads[i], stats, scratch).bases, want.bases);
    EXPECT_EQ(corrected[i].bases, want.bases);
    changed += want.bases != reads.reads[i].bases;
  }
  EXPECT_GT(changed, 0u);
}

TEST(Hitec, CorrectsWithWitnessSupport) {
  const auto setup = make_setup(9);
  core::CorrectionReport report;
  const auto corrected = correct_with("hitec", 11, setup.sim.reads, report);
  const auto m = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(m.gain(), 0.4) << "TP=" << m.tp << " FP=" << m.fp;
  EXPECT_GT(m.specificity(), 0.995);
  EXPECT_GT(report.extra("corrections"), 0u);
}

TEST(Hitec, ShortReadsPassThrough) {
  const auto setup = make_setup(11);
  baselines::HitecParams params;
  params.k = 11;
  baselines::HitecCorrector corrector(
      kspec::KSpectrum::build(setup.sim.reads, params.k + 1, true), params);
  baselines::HitecStats stats;
  const seq::Read tiny{"t", "ACGTACGT", {}};
  EXPECT_EQ(corrector.correct(tiny, stats).bases, "ACGT" "ACGT");
}

}  // namespace
