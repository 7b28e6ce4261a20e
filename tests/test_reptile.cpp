#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "eval/correction_metrics.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "reptile/corrector.hpp"
#include "reptile/params.hpp"
#include "seq/alphabet.hpp"
#include "spectrum_reference.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

struct SimSetup {
  std::string genome;
  sim::SimulatedReads sim;
};

SimSetup make_setup(std::size_t genome_len, double coverage, double err,
                    std::uint64_t seed, double ambiguous_rate = 0.0) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = genome_len;
  SimSetup s;
  s.genome = sim::simulate_genome(gspec, rng).sequence;
  const auto model = sim::ErrorModel::illumina(36, err);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  cfg.ambiguous_rate = ambiguous_rate;
  s.sim = sim::simulate_reads(s.genome, model, cfg, rng);
  return s;
}

reptile::ReptileParams small_params() {
  reptile::ReptileParams p;
  p.k = 10;
  p.d = 1;
  p.c_good = 8;
  p.c_min = 3;
  p.quality_cutoff = 15;
  return p;
}

TEST(ReptileParams, TileLengthAndDefaults) {
  reptile::ReptileParams p;
  p.k = 12;
  p.overlap = 2;
  EXPECT_EQ(p.tile_length(), 22);
  EXPECT_EQ(p.effective_ambig_window(), 12);
  EXPECT_EQ(p.effective_ambig_max(), p.d);
}

TEST(ReptileParams, SelectionFromData) {
  const auto setup = make_setup(20000, 40.0, 0.01, 7);
  const auto p = reptile::select_parameters(setup.sim.reads, 20000);
  // k = ceil(log4 20000) = 8 -> clamped to 10.
  EXPECT_EQ(p.k, 10);
  EXPECT_GT(p.quality_cutoff, 0);
  EXPECT_GT(p.c_good, p.c_min);
  EXPECT_GE(p.c_min, 2u);
}

TEST(ReptileCorrector, CorrectsMostErrorsAtHighCoverage) {
  const auto setup = make_setup(20000, 60.0, 0.008, 11);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto metrics = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(metrics.gain(), 0.5) << "TP=" << metrics.tp << " FP=" << metrics.fp
                                 << " FN=" << metrics.fn;
  EXPECT_GT(metrics.sensitivity(), 0.5);
  EXPECT_GT(metrics.specificity(), 0.995);
  EXPECT_LT(metrics.eba(), 0.1);
  EXPECT_EQ(stats.reads, setup.sim.reads.size());
}

TEST(ReptileCorrector, ErrorFreeDataIsLeftAlmostUntouched) {
  const auto setup = make_setup(20000, 50.0, 0.000001, 13);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto metrics = eval::evaluate_correction(setup.sim.reads, corrected);
  // Specificity must stay essentially perfect on clean data.
  EXPECT_GT(metrics.specificity(), 0.9999);
}

TEST(ReptileCorrector, HandlesReadsShorterThanTile) {
  const auto setup = make_setup(5000, 10.0, 0.01, 17);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  seq::Read tiny{"t", "ACGTACGT", {}};
  const auto out = corrector.correct(tiny, stats);
  EXPECT_EQ(out.bases, tiny.bases);  // shorter than a tile: untouched
}

TEST(ReptileCorrector, ConvertsEligibleAmbiguousBases) {
  const auto setup = make_setup(20000, 60.0, 0.005, 19, /*ambiguous=*/0.002);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  EXPECT_GT(stats.ambiguous_converted, 0u);
  const auto ambig = eval::evaluate_ambiguous(setup.sim.reads, corrected);
  ASSERT_GT(ambig.total_n, 0u);
  // Most isolated N's should resolve to the true base.
  EXPECT_GT(ambig.accuracy(), 0.6);
}

TEST(ReptileCorrector, DenseAmbiguousRegionsAreNotConverted) {
  const auto setup = make_setup(10000, 30.0, 0.005, 23);
  auto params = small_params();
  reptile::ReptileCorrector corrector(setup.sim.reads, params);
  reptile::CorrectionStats stats;
  // A read drowning in N's: density constraint must leave them be.
  seq::Read bad{"bad", "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN", {}};
  const auto out = corrector.correct(bad, stats);
  EXPECT_EQ(out.bases, bad.bases);
}

TEST(ReptileCorrector, HigherDFindsMoreErrors) {
  const auto setup = make_setup(15000, 80.0, 0.02, 29);
  auto p1 = small_params();
  auto p2 = small_params();
  p2.d = 2;
  reptile::ReptileCorrector c1(setup.sim.reads, p1);
  reptile::ReptileCorrector c2(setup.sim.reads, p2);
  reptile::CorrectionStats s1, s2;
  const auto out1 = c1.correct_all(setup.sim.reads, s1);
  const auto out2 = c2.correct_all(setup.sim.reads, s2);
  const auto m1 = eval::evaluate_correction(setup.sim.reads, out1);
  const auto m2 = eval::evaluate_correction(setup.sim.reads, out2);
  // The d=2 search space can only find at least as many true errors
  // (allow small slack for interaction effects).
  EXPECT_GE(m2.tp + 50, m1.tp);
}

TEST(ReptileCorrector, DeterministicAcrossRuns) {
  const auto setup = make_setup(10000, 40.0, 0.01, 31);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats s1, s2;
  const auto a = corrector.correct_all(setup.sim.reads, s1);
  const auto b = corrector.correct_all(setup.sim.reads, s2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].bases, b[i].bases);
  }
}

TEST(ReptileCorrector, CachedDecisionsMatchUncachedByteForByte) {
  const auto setup = make_setup(15000, 50.0, 0.015, 37);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  ASSERT_TRUE(corrector.cacheable());
  reptile::TileDecisionCache cache(1 << 20);  // small: forces evictions
  reptile::CorrectionStats su, sc;
  reptile::ReptileCorrector::Scratch scratch_u, scratch_c;
  for (const auto& read : setup.sim.reads.reads) {
    const auto uncached = corrector.correct(read, su, scratch_u, nullptr);
    const auto cached = corrector.correct(read, sc, scratch_c, &cache);
    ASSERT_EQ(uncached.bases, cached.bases) << read.id;
  }
  EXPECT_EQ(su.bases_changed, sc.bases_changed);
  EXPECT_EQ(su.tiles_corrected, sc.tiles_corrected);
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ReptileCorrector, RejectsOversizedTiles) {
  seq::ReadSet empty;
  reptile::ReptileParams p;
  p.k = 17;  // tile length 34 > 32
  const auto message = [](const auto& build) -> std::string {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  for (const std::string& what :
       {message([&] { reptile::ReptileCorrector(empty, p); }),
        message([&] { reptile::select_parameters(empty, 20000, 17); })}) {
    EXPECT_NE(what.find("k = 17"), std::string::npos) << what;
    EXPECT_NE(what.find("l = 0"), std::string::npos) << what;
    EXPECT_NE(what.find("tile length 2k - l = 34"), std::string::npos) << what;
  }
  p.k = 12;
  p.overlap = 12;  // l must stay below k
  EXPECT_THROW(reptile::ReptileCorrector(empty, p), std::invalid_argument);
}

/// Reads for the phase-1 identity tests: a random genome sampled at
/// lengths around the tile length T (T - 1, T, T + 1) and longer, with
/// substitutions, N runs, lowercase stretches and qualities that fall
/// below any plausible Qc.
seq::ReadSet phase1_reads(std::uint64_t seed, int tile, std::size_t count) {
  util::Rng rng(seed);
  std::string genome(3000, 'A');
  for (char& c : genome) {
    c = seq::code_to_base(static_cast<std::uint8_t>(rng.below(4)));
  }
  const std::size_t lengths[] = {static_cast<std::size_t>(tile - 1),
                                 static_cast<std::size_t>(tile),
                                 static_cast<std::size_t>(tile + 1), 36, 50};
  seq::ReadSet set;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = lengths[rng.below(5)];
    seq::Read r;
    r.id = "r" + std::to_string(i);
    r.bases = genome.substr(rng.below(genome.size() - len), len);
    for (char& c : r.bases) {
      if (rng.below(100) < 2) {
        c = seq::code_to_base(static_cast<std::uint8_t>(rng.below(4)));
      }
    }
    if (rng.below(4) == 0) {  // an N run of 1-3 bases
      const std::size_t at = rng.below(len);
      const std::size_t run = 1 + rng.below(3);
      for (std::size_t j = at; j < std::min(len, at + run); ++j) {
        r.bases[j] = 'N';
      }
    }
    if (rng.below(6) == 0) {  // a lowercase stretch
      const std::size_t at = rng.below(len);
      for (std::size_t j = at; j < std::min(len, at + 8); ++j) {
        if (r.bases[j] != 'N') {
          r.bases[j] = static_cast<char>(r.bases[j] | 0x20);
        }
      }
    }
    for (std::size_t j = 0; j < len; ++j) {
      r.quality.push_back(static_cast<std::uint8_t>(2 + rng.below(39)));
    }
    set.reads.push_back(std::move(r));
  }
  return set;
}

/// Reptile's N conversion, written out: an ambiguous base becomes
/// default_base at quality 0 when no window of min(w, L) bases covering
/// it holds more than amax ambiguous bases.
seq::ReadSet convert_reference(const seq::ReadSet& in,
                               const reptile::ReptileParams& p) {
  seq::ReadSet out = in;
  const int w = p.effective_ambig_window();
  const int amax = p.effective_ambig_max();
  for (std::size_t n = 0; n < in.reads.size(); ++n) {
    const std::string& bases = in.reads[n].bases;
    const int len = static_cast<int>(bases.size());
    const int win = std::min(w, len);
    for (int i = 0; i < len; ++i) {
      if (!seq::is_ambiguous(bases[static_cast<std::size_t>(i)])) continue;
      bool eligible = true;
      for (int s = std::max(0, i - win + 1); s <= std::min(i, len - win); ++s) {
        int ambiguous = 0;
        for (int j = s; j < s + win; ++j) {
          ambiguous += seq::is_ambiguous(bases[static_cast<std::size_t>(j)]);
        }
        eligible = eligible && ambiguous <= amax;
      }
      if (!eligible) continue;
      out.reads[n].bases[static_cast<std::size_t>(i)] = p.default_base;
      out.reads[n].quality[static_cast<std::size_t>(i)] = 0;
    }
  }
  return out;
}

/// Oc and Og of every tile of `reads` (both strands), counted in a map:
/// a window counts toward Og when none of its bases scores below Qc.
std::map<seq::KmerCode, std::pair<std::uint32_t, std::uint32_t>> tile_counts(
    const seq::ReadSet& reads, const reptile::ReptileParams& p) {
  std::map<seq::KmerCode, std::pair<std::uint32_t, std::uint32_t>> counts;
  const auto t = static_cast<std::size_t>(p.tile_length());
  for (const auto& r : reads.reads) {
    for (std::size_t s = 0; s + t <= r.bases.size(); ++s) {
      const auto code =
          seq::encode_kmer(std::string_view(r.bases).substr(s, t));
      if (!code) continue;
      bool high = true;
      for (std::size_t j = s; j < s + t; ++j) {
        high = high && r.quality[j] >= p.quality_cutoff;
      }
      const auto rc = seq::encode_kmer(
          seq::reverse_complement(r.bases.substr(s, t)));
      for (const seq::KmerCode c : {*code, *rc}) {
        ++counts[c].first;
        counts[c].second += high ? 1 : 0;
      }
    }
  }
  return counts;
}

/// A ReadPass parsing FASTQ text in batches of `batch` reads, as the
/// pipeline's passes do, on one thread that plays two workers in turn.
seq::ReadPass fastq_pass(const std::string& fastq, std::size_t batch) {
  return {2, [&fastq, batch](const seq::BatchWork& work) {
            std::istringstream is(fastq);
            io::FastqStreamReader reader(is);
            std::vector<seq::Read> reads;
            for (std::size_t b = 0; reader.read_batch(reads, batch) > 0; ++b) {
              if (const auto fold = work(reads, b % 2)) fold();
              reads.clear();
            }
          }};
}

// Phase 1 streamed from FASTQ in small batches, choosing Qc and Qm from
// what it streams, counts exactly the tables of phase 1 over a ReadSet
// with select_read_parameters: the same spectrum, tile codes, Oc, Og
// and Cg/Cm. Both match a count written out independently.
TEST(ReptileCorrector, StreamedAndReadSetBuildsCountTheSameTables) {
  struct Case {
    int k, overlap;
  };
  for (const Case c : {Case{6, 0}, Case{8, 3}, Case{5, 1}, Case{10, 0}}) {
    const int tile = 2 * c.k - c.overlap;
    SCOPED_TRACE("k=" + std::to_string(c.k) + " l=" +
                 std::to_string(c.overlap));
    const seq::ReadSet reads = phase1_reads(
        static_cast<std::uint64_t>(100 + c.k), tile, 1500);
    std::ostringstream os;
    io::write_fastq(os, std::span<const seq::Read>(reads.reads));
    const std::string fastq = os.str();

    auto params = reptile::select_read_parameters(reads, 3000, c.k);
    params.overlap = c.overlap;
    auto from_reads = reptile::select_k(3000, c.k);
    from_reads.overlap = c.overlap;
    reptile::ReptileCorrector streamed(
        fastq_pass(fastq, 37), from_reads,
        reptile::ReptileCorrector::QualityCutoffs::kFromReads);
    reptile::ReptileCorrector buffered(reads, params);
    ASSERT_GT(params.quality_cutoff, 2);
    EXPECT_EQ(streamed.params().quality_cutoff, params.quality_cutoff);
    EXPECT_EQ(streamed.params().quality_max, params.quality_max);

    const seq::ReadSet converted = convert_reference(reads, params);
    const auto spectrum = ref::reference_spectrum(converted, c.k, true);
    ref::expect_byte_identical(streamed.spectrum(), spectrum);
    ref::expect_byte_identical(buffered.spectrum(), spectrum);

    const auto expected = tile_counts(converted, params);
    for (const auto* corrector : {&streamed, &buffered}) {
      const auto& tiles = corrector->tiles();
      ASSERT_EQ(tiles.size(), expected.size());
      std::size_t i = 0;
      for (const auto& [code, counts] : expected) {
        ASSERT_EQ(tiles.code_at(i), code) << i;
        ASSERT_EQ(tiles.counts_at(i).oc, counts.first) << i;
        ASSERT_EQ(tiles.counts_at(i).og, counts.second) << i;
        ++i;
      }
    }
    streamed.choose_thresholds();
    buffered.choose_thresholds();
    EXPECT_EQ(streamed.params().c_good, buffered.params().c_good);
    EXPECT_EQ(streamed.params().c_min, buffered.params().c_min);
  }
}

}  // namespace
