// Randomized differential test of the streaming pipeline: on generated
// runs, CorrectionPipeline::run writes exactly what the in-memory
// Corrector::build + correct_all path writes, for every registered
// method. Each seed draws a fixed number of small simulator
// configurations: read lengths (some shorter than k or than a Reptile
// tile), coverage, error and N rates, k, batch size and thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "io/fastx.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

constexpr int kIterationsPerSeed = 3;

/// One drawn configuration, printed with every failure so it can be
/// kept as a fixed case.
struct Draw {
  std::size_t genome_length = 0;
  std::size_t read_lengths[2] = {0, 0};
  double coverage = 0.0;
  double error_rate = 0.0;
  double n_rate = 0.0;
  int k = 0;
  std::size_t batch_size = 0;
  std::size_t threads = 0;

  std::string describe() const {
    std::ostringstream os;
    os << "genome=" << genome_length << " read_lengths=" << read_lengths[0]
       << ',' << read_lengths[1] << " coverage=" << coverage
       << " error_rate=" << error_rate << " n_rate=" << n_rate << " k=" << k
       << " batch_size=" << batch_size << " threads=" << threads;
    return os.str();
  }
};

/// A read length from one of three bands: shorter than most k's, shorter
/// than a Reptile tile (2k at the default overlap), or a usual length.
std::size_t draw_read_length(util::Rng& rng) {
  switch (rng.below(3)) {
    case 0: return 1 + rng.below(9);    // 1..9
    case 1: return 10 + rng.below(14);  // 10..23
    default: return 24 + rng.below(40);  // 24..63
  }
}

Draw draw(util::Rng& rng) {
  Draw d;
  d.genome_length = 1500 + rng.below(3500);
  d.read_lengths[0] = draw_read_length(rng);
  d.read_lengths[1] = rng.below(2) == 0 ? 0 : draw_read_length(rng);
  d.coverage = rng.uniform(2.0, 20.0);
  d.error_rate = rng.uniform(0.0, 0.03);
  d.n_rate = rng.below(2) == 0 ? 0.0 : rng.uniform(0.0, 0.02);
  d.k = rng.below(3) == 0 ? 0 : 5 + static_cast<int>(rng.below(12));  // 5..16
  d.batch_size = rng.below(4) == 0 ? 1 + rng.below(4) : 16 + rng.below(300);
  d.threads = 1 + rng.below(4);
  return d;
}

/// The reads of `d`: one simulated set per drawn read length, appended
/// in turn, with ids prefixed 'a' and 'b'. A set of reads shorter than
/// 24 bases holds as many reads as a 24-base set of that coverage.
seq::ReadSet simulate(const Draw& d, util::Rng& rng) {
  sim::GenomeSpec gspec;
  gspec.length = d.genome_length;
  const auto genome = sim::simulate_genome(gspec, rng);
  seq::ReadSet reads;
  char prefix = 'a';
  for (const std::size_t length : d.read_lengths) {
    if (length == 0) continue;
    sim::ReadSimConfig cfg;
    cfg.read_length = length;
    cfg.num_reads = static_cast<std::size_t>(
        d.coverage * static_cast<double>(d.genome_length) /
        static_cast<double>(std::max<std::size_t>(length, 24)));
    cfg.ambiguous_rate = d.n_rate;
    auto set = sim::simulate_reads(
        genome.sequence, sim::ErrorModel::illumina(length, d.error_rate), cfg,
        rng);
    for (auto& r : set.reads.reads) {
      r.id.insert(0, 1, prefix);
      reads.reads.push_back(std::move(r));
    }
    ++prefix;
  }
  return reads;
}

std::set<std::string> extra_keys(const core::CorrectionReport& report) {
  std::set<std::string> keys;
  for (const auto& [name, value] : report.extras) keys.insert(name);
  return keys;
}

class PipelineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineDifferential, MatchesInMemoryPath) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < kIterationsPerSeed; ++iteration) {
    const Draw d = draw(rng);
    const seq::ReadSet reads = simulate(d, rng);
    SCOPED_TRACE(d.describe());
    core::InputSummary summary;
    for (const auto& r : reads.reads) summary.add(r);
    std::ostringstream fastq;
    io::write_fastq(fastq, reads);
    const std::string input = fastq.str();

    core::CorrectorConfig config;
    config.genome_length = d.genome_length;
    config.k = d.k;
    config.error_rate = d.error_rate;
    for (const auto& method : core::registered_methods()) {
      SCOPED_TRACE(method.name);
      auto reference = core::make_corrector(method.name, config);
      reference->build(reads);
      core::CorrectionReport ref_report;
      const auto ref_reads = reference->correct_all(reads, ref_report);
      reference->annotate_report(ref_report);
      std::ostringstream ref_out;
      io::write_fastq(ref_out, std::span<const seq::Read>(ref_reads));

      core::PipelineOptions options;
      options.batch_size = d.batch_size;
      options.threads = d.threads;
      core::CorrectionPipeline pipeline(
          core::make_corrector(method.name, config), options);
      std::ostringstream out;
      const auto result = pipeline.run(
          [&input] { return std::make_unique<std::istringstream>(input); },
          out);

      EXPECT_EQ(out.str(), ref_out.str());
      EXPECT_EQ(result.input.reads, summary.reads);
      EXPECT_EQ(result.input.bases, summary.bases);
      EXPECT_EQ(result.input.max_read_length, summary.max_read_length);
      EXPECT_EQ(result.report.reads, reads.size());
      EXPECT_EQ(result.report.reads_changed, ref_report.reads_changed);
      EXPECT_EQ(result.report.bases_changed, ref_report.bases_changed);
      // The pipeline adds nothing to what the corrector counts.
      EXPECT_EQ(extra_keys(result.report), extra_keys(ref_report));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

}  // namespace
