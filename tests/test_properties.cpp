// Parameterized property suites: invariants that must hold across
// configuration sweeps rather than at single points.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <numeric>
#include <set>

#include "closet/similarity.hpp"
#include "eval/correction_metrics.hpp"
#include "kspec/tile_table.hpp"
#include "mapreduce/job.hpp"
#include "reptile/corrector.hpp"
#include "seq/alphabet.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

// ---------------------------------------------------------------------
// Reptile never corrupts: across coverage x error-rate combinations,
// specificity stays near-perfect and gain never goes negative.

struct CorrectionCase {
  double coverage;
  double error_rate;
};

class ReptileSafety : public ::testing::TestWithParam<CorrectionCase> {};

TEST_P(ReptileSafety, SpecificityAndGainBounds) {
  const auto [coverage, error_rate] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(coverage * 100 + error_rate * 1e5));
  sim::GenomeSpec gspec;
  gspec.length = 15000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, error_rate);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  const auto run = sim::simulate_reads(genome.sequence, model, cfg, rng);

  reptile::ReptileParams params;
  params.k = 10;
  params.c_min = 3;
  params.c_good = 8;
  params.quality_cutoff = 15;
  reptile::ReptileCorrector corrector(run.reads, params);
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(run.reads, stats);
  const auto m = eval::evaluate_correction(run.reads, corrected);
  EXPECT_GT(m.specificity(), 0.993)
      << "cov=" << coverage << " err=" << error_rate;
  EXPECT_GE(m.gain(), -0.01)
      << "cov=" << coverage << " err=" << error_rate;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReptileSafety,
    ::testing::Values(CorrectionCase{20, 0.005}, CorrectionCase{40, 0.005},
                      CorrectionCase{80, 0.005}, CorrectionCase{40, 0.02},
                      CorrectionCase{80, 0.02}, CorrectionCase{40, 0.001}));

// ---------------------------------------------------------------------
// MapReduce determinism and correctness are invariant to the execution
// geometry (reducer count, map task count, injected failures).

struct EngineCase {
  std::size_t reducers;
  std::size_t map_tasks;
  double failure_rate;
};

class EngineGeometry : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineGeometry, SumInvariantAcrossGeometry) {
  const auto [reducers, map_tasks, failure_rate] = GetParam();
  std::vector<std::pair<int, int>> input;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    input.emplace_back(i, static_cast<int>(rng.below(97)));
  }
  mapreduce::JobConfig config;
  config.num_reducers = reducers;
  config.num_map_tasks = map_tasks;
  config.task_failure_rate = failure_rate;
  config.max_task_attempts = 64;
  using SumJob = mapreduce::Job<int, int, int, int, int, int>;
  const auto out = SumJob::run(
      input,
      [](const int&, const int& v, mapreduce::Emitter<int, int>& e) {
        e.emit(v % 10, v);
      },
      [](const int& k, std::span<const int> vs,
         mapreduce::Emitter<int, int>& e) {
        e.emit(k, std::accumulate(vs.begin(), vs.end(), 0));
      },
      config);
  // Total is preserved regardless of geometry.
  long long total = 0;
  for (const auto& [k, v] : out) total += v;
  long long expect = 0;
  for (const auto& [k, v] : input) expect += v;
  EXPECT_EQ(total, expect);
  EXPECT_EQ(out.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineGeometry,
    ::testing::Values(EngineCase{1, 1, 0.0}, EngineCase{1, 16, 0.0},
                      EngineCase{8, 4, 0.0}, EngineCase{16, 16, 0.0},
                      EngineCase{4, 8, 0.3}, EngineCase{8, 2, 0.5}));

// ---------------------------------------------------------------------
// Tile table invariants across k / overlap / quality cutoffs.

struct TileCase {
  int k;
  int overlap;
  int qc;
};

class TileInvariants : public ::testing::TestWithParam<TileCase> {};

TEST_P(TileInvariants, OgBoundedAndStrandSymmetric) {
  const auto [k, overlap, qc] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(k * 100 + overlap * 10 + qc));
  sim::GenomeSpec gspec;
  gspec.length = 5000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 15.0;
  const auto run = sim::simulate_reads(genome.sequence, model, cfg, rng);

  kspec::TileParams params;
  params.k = k;
  params.overlap = overlap;
  params.quality_cutoff = qc;
  const auto table = kspec::TileTable::build(run.reads, params);
  ASSERT_GT(table.size(), 0u);
  const int T = params.tile_length();
  std::uint64_t total_oc = 0;
  for (std::size_t i = 0; i < table.size(); i += 7) {
    const auto counts = table.counts_at(i);
    ASSERT_LE(counts.og, counts.oc);
    total_oc += counts.oc;
    // Strand symmetry: a tile and its reverse complement have the same
    // raw multiplicity when both strands contribute.
    const auto rc = seq::reverse_complement(table.code_at(i), T);
    ASSERT_EQ(table.counts(rc).oc, counts.oc);
  }
  EXPECT_GT(total_oc, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TileInvariants,
                         ::testing::Values(TileCase{8, 0, 0},
                                           TileCase{10, 0, 20},
                                           TileCase{12, 2, 0},
                                           TileCase{12, 4, 25},
                                           TileCase{14, 8, 15}));

// ---------------------------------------------------------------------
// Sketch partitions: the round sketches of any M partition the hash set.

class SketchPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SketchPartition, RoundsPartitionHashes) {
  const std::uint64_t M = GetParam();
  util::Rng rng(M);
  const auto read = sim::random_sequence(500, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto hashes = closet::kmer_hashes(read, 15);
  ASSERT_FALSE(hashes.empty());
  std::set<std::uint64_t> rebuilt;
  std::size_t total = 0;
  for (std::uint64_t l = 0; l < M; ++l) {
    const auto sketch = closet::sketch_of(hashes, M, l);
    total += sketch.size();
    rebuilt.insert(sketch.begin(), sketch.end());
  }
  EXPECT_EQ(total, hashes.size());
  EXPECT_EQ(rebuilt.size(), hashes.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SketchPartition,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------
// The read simulator draws each substitution's target from the error
// model's off-diagonal row at the base's read position, across profiles.

enum class Profile { kUniform, kIllumina, kAlternate };

class ModelSampling : public ::testing::TestWithParam<Profile> {};

TEST_P(ModelSampling, EmpiricalMatchesMatrix) {
  sim::ErrorModel model;
  switch (GetParam()) {
    case Profile::kUniform: model = sim::ErrorModel::uniform(20, 0.1); break;
    case Profile::kIllumina:
      model = sim::ErrorModel::illumina(20, 0.1);
      break;
    case Profile::kAlternate:
      model = sim::ErrorModel::illumina_alternate(20, 0.1);
      break;
  }
  util::Rng rng(3);
  const auto genome =
      sim::random_sequence(20000, {0.25, 0.25, 0.25, 0.25}, rng);
  sim::ReadSimConfig cfg;
  cfg.read_length = 20;
  cfg.num_reads = 60000;
  const auto result = sim::simulate_reads(genome, model, cfg, rng);
  // seen[a][b]: substitutions of true base a by b. expected[a][b]: the
  // same substitutions spread over the normalized off-diagonal row each
  // was drawn from.
  std::array<std::array<double, 4>, 4> seen{};
  std::array<std::array<double, 4>, 4> expected{};
  for (std::size_t r = 0; r < result.reads.size(); ++r) {
    const std::string& bases = result.reads.reads[r].bases;
    const std::string& truth = result.reads.truth[r].true_bases;
    for (std::size_t i = 0; i < bases.size(); ++i) {
      const std::uint8_t from = seq::base_to_code(truth[i]);
      const std::uint8_t to = seq::base_to_code(bases[i]);
      if (to == from) continue;
      seen[from][to] += 1.0;
      const auto& row = model.matrix(i)[from];
      for (std::uint8_t b = 0; b < 4; ++b) {
        if (b != from) expected[from][b] += row[b] / model.error_prob(i, from);
      }
    }
  }
  for (std::uint8_t from = 0; from < 4; ++from) {
    const double total =
        seen[from][0] + seen[from][1] + seen[from][2] + seen[from][3];
    ASSERT_GT(total, 10000.0);
    for (std::uint8_t to = 0; to < 4; ++to) {
      EXPECT_NEAR(seen[from][to] / total, expected[from][to] / total, 0.01)
          << "from=" << int{from} << " to=" << int{to};
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelSampling,
                         ::testing::Values(Profile::kUniform,
                                           Profile::kIllumina,
                                           Profile::kAlternate));

}  // namespace
