// Tests for the ngs::core layer: the corrector registry, the streaming
// FASTQ reader, and the two-pass CorrectionPipeline — in particular the
// guarantee that the pipeline's file-to-file output is byte-identical to
// the in-memory Corrector::correct_all path for every registered method.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "reptile/corrector.hpp"
#include "reptile/params.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ngs;

sim::SimulatedReads make_run(std::uint64_t seed, double coverage = 25.0) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  return sim::simulate_reads(genome.sequence, model, cfg, rng);
}

std::string to_fastq(const seq::ReadSet& reads) {
  std::ostringstream os;
  io::write_fastq(os, reads);
  return os.str();
}

core::CorrectionPipeline::StreamFactory factory_for(std::string fastq) {
  return [fastq = std::move(fastq)] {
    return std::make_unique<std::istringstream>(fastq);
  };
}

TEST(CorrectionReport, BumpExtraMergeSummary) {
  core::CorrectionReport a;
  a.reads = 10;
  a.reads_changed = 2;
  a.bases_changed = 3;
  a.bump("tiles", 5);
  a.bump("tiles", 2);
  EXPECT_EQ(a.extra("tiles"), 7u);
  EXPECT_EQ(a.extra("missing"), 0u);

  core::CorrectionReport b;
  b.reads = 1;
  b.bump("other", 1);
  b.bump("tiles", 1);
  a.merge(b);
  EXPECT_EQ(a.reads, 11u);
  EXPECT_EQ(a.extra("tiles"), 8u);
  EXPECT_EQ(a.extra("other"), 1u);
  const std::string s = a.summary();
  EXPECT_NE(s.find("11 reads"), std::string::npos);
  EXPECT_NE(s.find("tiles=8"), std::string::npos);
}

TEST(Registry, ListsAllSevenBuiltins) {
  const auto methods = core::registered_methods();
  std::set<std::string> names;
  for (const auto& m : methods) names.insert(m.name);
  for (const char* expected :
       {"reptile", "redeem", "hybrid", "shrec", "sap", "hitec", "freclu"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
  EXPECT_EQ(names.size(), methods.size()) << "duplicate registrations";
  for (const auto& m : methods) {
    EXPECT_FALSE(core::make_corrector(m.name)->ready()) << m.name;
  }
}

TEST(Registry, UnknownMethodThrowsWithKnownNames) {
  try {
    core::make_corrector("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("reptile"), std::string::npos);
  }
}

// A spectrum method's k-mers must fit one packed code: sap takes k = 32,
// and a k whose spectrum would not fit (sap 33, hitec 32 with its
// (k+1)-mer witnesses, redeem 33) is rejected with a message naming the
// method, k and the range.
TEST(Registry, RejectsSpectrumKOutsidePackedRange) {
  core::CorrectorConfig config;
  config.k = 32;
  EXPECT_EQ(core::make_corrector("sap", config)->spectrum_k(), 32);
  EXPECT_EQ(core::make_corrector("redeem", config)->spectrum_k(), 32);
  config.k = 31;
  EXPECT_EQ(core::make_corrector("hitec", config)->spectrum_k(), 32);

  const std::pair<const char*, int> rejected[] = {
      {"sap", 33}, {"hitec", 32}, {"redeem", 33}};
  for (const auto& [method, k] : rejected) {
    config.k = k;
    try {
      core::make_corrector(method, config);
      ADD_FAILURE() << method << " accepted k=" << k;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(method), std::string::npos) << what;
      EXPECT_NE(what.find("k=" + std::to_string(k)), std::string::npos)
          << what;
      EXPECT_NE(what.find("[1, 32]"), std::string::npos) << what;
    }
  }
}

TEST(Corrector, CorrectBeforeBuildThrows) {
  const auto corrector = core::make_corrector("sap");
  core::CorrectionReport report;
  seq::ReadSet reads;
  EXPECT_THROW(corrector->correct_all(reads, report), std::logic_error);
}

TEST(FastqStreamReader, MatchesReadFastq) {
  const auto run = make_run(3);
  const std::string fastq = to_fastq(run.reads);

  std::istringstream is(fastq);
  io::FastqStreamReader reader(is);
  seq::Read r;
  std::size_t i = 0;
  while (reader.next(r)) {
    ASSERT_LT(i, run.reads.size());
    EXPECT_EQ(r.id, run.reads.reads[i].id);
    EXPECT_EQ(r.bases, run.reads.reads[i].bases);
    ++i;
  }
  EXPECT_EQ(i, run.reads.size());
  EXPECT_EQ(reader.records(), run.reads.size());
}

TEST(FastqStreamReader, BatchSizeOneAndOversizedBatch) {
  const auto run = make_run(5, 2.0);
  const std::string fastq = to_fastq(run.reads);

  // Batch size 1: one record per call, then 0 at EOF.
  {
    std::istringstream is(fastq);
    io::FastqStreamReader reader(is);
    std::vector<seq::Read> batch;
    std::size_t total = 0;
    while (true) {
      batch.clear();
      const std::size_t n = reader.read_batch(batch, 1);
      if (n == 0) break;
      ASSERT_EQ(n, 1u);
      ASSERT_EQ(batch.size(), 1u);
      EXPECT_EQ(batch[0].bases, run.reads.reads[total].bases);
      ++total;
    }
    EXPECT_EQ(total, run.reads.size());
  }

  // Batch larger than the file: everything arrives in one call.
  {
    std::istringstream is(fastq);
    io::FastqStreamReader reader(is);
    std::vector<seq::Read> batch;
    EXPECT_EQ(reader.read_batch(batch, run.reads.size() * 10),
              run.reads.size());
    EXPECT_EQ(batch.size(), run.reads.size());
    EXPECT_EQ(reader.read_batch(batch, 8), 0u);
  }
}

TEST(FastqStreamReader, AppendsWithoutClearing) {
  std::istringstream is("@a\nACGT\n+\nIIII\n@b\nTTTT\n+\nIIII\n");
  io::FastqStreamReader reader(is);
  std::vector<seq::Read> batch;
  EXPECT_EQ(reader.read_batch(batch, 1), 1u);
  EXPECT_EQ(reader.read_batch(batch, 1), 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, "a");
  EXPECT_EQ(batch[1].id, "b");
}

TEST(FastqStreamReader, TruncatedRecordThrows) {
  // Record cut off after the '+' separator.
  std::istringstream is("@a\nACGT\n+\nIIII\n@b\nTTTT\n+\n");
  io::FastqStreamReader reader(is);
  seq::Read r;
  EXPECT_TRUE(reader.next(r));
  EXPECT_THROW(reader.next(r), std::runtime_error);
}

TEST(FastqStreamReader, MalformedRecordsThrow) {
  seq::Read r;
  {
    std::istringstream is("ACGT\n+\nIIII\n");  // header missing '@'
    io::FastqStreamReader reader(is);
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
  {
    std::istringstream is("@a\nACGT\nIIII\n@b\n");  // '+' missing
    io::FastqStreamReader reader(is);
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
  {
    std::istringstream is("@a\nACGT\n+\nIII\n");  // length mismatch
    io::FastqStreamReader reader(is);
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
}

TEST(FastqStreamReader, MissingFileThrows) {
  EXPECT_THROW(io::FastqStreamReader("/nonexistent/path.fastq"),
               std::runtime_error);
}

// The central pipeline guarantee: file-to-file streaming correction is
// byte-identical to in-memory build + correct_all, for every method.
TEST(CorrectionPipeline, ByteIdenticalToCorrectAllForEveryMethod) {
  const auto run = make_run(11);
  const std::string input = to_fastq(run.reads);

  for (const auto& m : core::registered_methods()) {
    core::CorrectorConfig config;
    config.genome_length = 20000;
    if (m.name == "redeem" || m.name == "hybrid") config.error_rate = 0.01;

    // Reference: the in-memory path.
    auto reference = core::make_corrector(m.name, config);
    reference->build(run.reads);
    core::CorrectionReport ref_report;
    const auto ref_out = reference->correct_all(run.reads, ref_report);
    std::ostringstream ref_fastq;
    io::write_fastq(ref_fastq, std::span<const seq::Read>(ref_out));

    // Candidate: the streaming pipeline over the same bytes, with a batch
    // size that does not divide the input evenly.
    core::PipelineOptions options;
    options.batch_size = 257;
    core::CorrectionPipeline pipeline(core::make_corrector(m.name, config),
                                      options);
    std::ostringstream out;
    const auto result = pipeline.run(factory_for(input), out);

    EXPECT_EQ(out.str(), ref_fastq.str()) << m.name;
    EXPECT_EQ(result.report.reads, run.reads.size()) << m.name;
    EXPECT_EQ(result.report.reads_changed, ref_report.reads_changed) << m.name;
    EXPECT_EQ(result.report.bases_changed, ref_report.bases_changed) << m.name;
    EXPECT_EQ(result.input.reads, run.reads.size()) << m.name;
  }
}

// The streamed path holds several batches in flight in either pass, but
// stays under the executor's cap: batch_size * (queue_depth + 2*threads
// + 1) reads resident, at every thread count. Phase 1 counts on as many
// executor workers as pass 2 corrects on.
TEST(CorrectionPipeline, OverlappedPathBuffersStayBounded) {
  const auto run = make_run(13);
  const std::string input = to_fastq(run.reads);
  ASSERT_GT(run.reads.size(), 256u);
  const std::size_t depth = util::PipelineExecutorOptions{}.queue_depth;
  ASSERT_EQ(depth, 4u);

  // Reptile streams phase 1 too: two passes of its own before pass 2.
  for (const std::string method : {"sap", "reptile"}) {
    for (const std::size_t threads : {1ul, 2ul, 4ul}) {
      SCOPED_TRACE(method + " at " + std::to_string(threads) + " threads");
      core::CorrectorConfig config;
      config.genome_length = 20000;
      core::PipelineOptions options;
      options.batch_size = 64;
      options.threads = threads;
      core::CorrectionPipeline pipeline(core::make_corrector(method, config),
                                        options);
      std::ostringstream out;
      const auto result = pipeline.run(factory_for(input), out);

      const std::size_t batches =
          (run.reads.size() + options.batch_size - 1) / options.batch_size;
      const std::size_t phase1_passes = method == "sap" ? 1 : 2;
      EXPECT_GT(result.peak_buffered_reads, 0u);
      EXPECT_LE(result.peak_buffered_reads,
                options.batch_size * (depth + 2 * threads + 1));
      EXPECT_GT(result.peak_rss_bytes, 0u);
      EXPECT_EQ(result.batches, batches);
      EXPECT_EQ(result.input.reads, run.reads.size());
      EXPECT_EQ(result.pass1_overlap.workers, threads);
      EXPECT_EQ(result.pass1_overlap.items, phase1_passes * batches);
      EXPECT_LE(result.pass1_overlap.queue_peak, depth);
      EXPECT_EQ(result.pass2_overlap.workers, threads);
      EXPECT_EQ(result.pass2_overlap.items, result.batches);
      EXPECT_LE(result.pass2_overlap.queue_peak, depth);
    }
  }
}

// The executor's identity guarantee: output is byte-identical to the
// in-memory correct_all path at every thread count, for both a
// spectrum-streamed and a buffered-input method.
TEST(CorrectionPipeline, OverlappedOutputByteIdenticalToCorrectAllAcrossThreads) {
  const auto run = make_run(29);
  const std::string input = to_fastq(run.reads);

  for (const char* method : {"sap", "reptile"}) {
    core::CorrectorConfig config;
    config.genome_length = 20000;

    auto reference = core::make_corrector(method, config);
    reference->build(run.reads);
    core::CorrectionReport ref_report;
    const auto ref_reads = reference->correct_all(run.reads, ref_report);
    std::ostringstream ref_out;
    io::write_fastq(ref_out, std::span<const seq::Read>(ref_reads));
    ASSERT_FALSE(ref_out.str().empty()) << method;

    for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
      core::PipelineOptions options;
      options.batch_size = 113;
      options.threads = threads;
      core::CorrectionPipeline pipeline(core::make_corrector(method, config),
                                        options);
      std::ostringstream out;
      const auto result = pipeline.run(factory_for(input), out);
      EXPECT_EQ(result.pass2_overlap.workers, threads)
          << method << " t=" << threads;
      EXPECT_EQ(out.str(), ref_out.str()) << method << " t=" << threads;
    }
  }
}

// Only a whole-set method buffers the input: correct_all sees every
// read at once. Its buffering pass streams on the executor like every
// other pass; its pass 2 runs no executor.
TEST(CorrectionPipeline, BufferedPathHoldsWholeInput) {
  const auto run = make_run(17, 5.0);
  const std::string input = to_fastq(run.reads);

  core::PipelineOptions options;
  options.batch_size = 64;
  core::CorrectionPipeline pipeline(core::make_corrector("freclu", {}),
                                    options);
  std::ostringstream out;
  const auto result = pipeline.run(factory_for(input), out);

  EXPECT_EQ(result.peak_buffered_reads, run.reads.size());
  EXPECT_EQ(result.report.reads, run.reads.size());
  EXPECT_EQ(result.input.reads, run.reads.size());
  EXPECT_EQ(result.pass1_overlap.workers, util::default_pool().size());
  EXPECT_EQ(result.pass1_overlap.items,
            (run.reads.size() + options.batch_size - 1) / options.batch_size);
  EXPECT_EQ(result.pass2_overlap.workers, 0u);
  EXPECT_GT(result.pass2_seconds, 0.0);
}

TEST(CorrectionPipeline, OwnThreadCountMatchesDefaultPoolOutput) {
  const auto run = make_run(19, 10.0);
  const std::string input = to_fastq(run.reads);

  std::string outputs[2];
  for (int i = 0; i < 2; ++i) {
    core::PipelineOptions options;
    options.batch_size = 100;
    options.threads = i == 0 ? 0 : 3;
    core::CorrectionPipeline pipeline(core::make_corrector("hitec", {}),
                                      options);
    std::ostringstream out;
    pipeline.run(factory_for(input), out);
    outputs[i] = out.str();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_FALSE(outputs[0].empty());
}

// The tile-decision memo must never change what the pipeline writes:
// cached and uncached runs are byte-identical at every thread count,
// and the cached run counts its hits and misses.
TEST(CorrectionPipeline, TileCacheOutputByteIdenticalAcrossThreadCounts) {
  const auto run = make_run(23);
  const std::string input = to_fastq(run.reads);

  auto run_pipeline = [&](std::size_t tile_cache_mb, std::size_t threads,
                          core::PipelineResult& result) {
    core::CorrectorConfig config;
    config.genome_length = 20000;
    config.tile_cache_mb = tile_cache_mb;
    core::PipelineOptions options;
    options.batch_size = 301;
    options.threads = threads;
    core::CorrectionPipeline pipeline(core::make_corrector("reptile", config),
                                      options);
    std::ostringstream out;
    result = pipeline.run(factory_for(input), out);
    return out.str();
  };

  core::PipelineResult uncached_result;
  const std::string uncached = run_pipeline(0, 1, uncached_result);
  const auto& uncached_report = uncached_result.report;
  ASSERT_FALSE(uncached.empty());
  EXPECT_EQ(uncached_report.extra("tile_cache_hits"), 0u);
  EXPECT_EQ(uncached_report.extra("tile_cache_misses"), 0u);

  for (const std::size_t threads : {0ul, 1ul, 2ul, 4ul}) {
    core::PipelineResult result;
    EXPECT_EQ(run_pipeline(32, threads, result), uncached) << threads;
    const auto& report = result.report;
    EXPECT_GT(report.extra("tile_cache_hits") +
                  report.extra("tile_cache_misses"),
              0u)
        << threads;
    EXPECT_GT(result.pass2_seconds, 0.0) << threads;
    EXPECT_EQ(report.reads_changed, uncached_report.reads_changed) << threads;
    EXPECT_EQ(report.bases_changed, uncached_report.bases_changed) << threads;
  }
}

// The memo's counters count decisions, not lookups: a tile two workers
// miss at once is decided twice but inserted once, so while nothing is
// evicted the hits and misses repeat exactly, run after run and at any
// worker count.
TEST(CorrectionPipeline, TileCacheCountsRepeatAcrossRunsAndWorkers) {
  const auto run = make_run(31);
  const std::string input = to_fastq(run.reads);
  std::vector<std::vector<std::uint64_t>> counts;
  for (const std::size_t threads : {1ul, 4ul}) {
    for (int i = 0; i < 3; ++i) {
      core::CorrectorConfig config;
      config.genome_length = 20000;
      core::PipelineOptions options;
      options.batch_size = 301;
      options.threads = threads;
      core::CorrectionPipeline pipeline(core::make_corrector("reptile", config),
                                        options);
      std::ostringstream out;
      const auto report = pipeline.run(factory_for(input), out).report;
      counts.push_back({report.extra("tile_cache_hits"),
                        report.extra("tile_cache_misses"),
                        report.extra("tile_cache_evictions")});
    }
  }
  EXPECT_GT(counts.front()[0], 0u);
  EXPECT_GT(counts.front()[1], 0u);
  EXPECT_EQ(counts.front()[2], 0u);
  for (const auto& c : counts) EXPECT_EQ(c, counts.front());
}

// --k sets the tile length Reptile's thresholds are chosen at: the run
// reports the Cg and Cm that select_parameters finds at that k, not the
// ones of the k derived from the genome length.
TEST(CorrectionPipeline, ReptileKChoosesThresholdsAtThatK) {
  const auto run = make_run(29);
  const std::string input = to_fastq(run.reads);
  const auto note = [](const reptile::ReptileParams& p) {
    return "k:" + std::to_string(p.k) + ",tile:" +
           std::to_string(p.tile_length()) + ",Qc:" +
           std::to_string(p.quality_cutoff) + ",Cg:" +
           std::to_string(p.c_good) + ",Cm:" + std::to_string(p.c_min);
  };
  const auto derived = reptile::select_parameters(run.reads, 20000);
  const auto at_12 = reptile::select_parameters(run.reads, 20000, 12);
  ASSERT_EQ(derived.k, 10);
  ASSERT_EQ(at_12.k, 12);
  ASSERT_NE(note(derived), note(at_12));

  for (const int k : {0, 12}) {
    core::CorrectorConfig config;
    config.genome_length = 20000;
    config.k = k;
    core::CorrectionPipeline pipeline(core::make_corrector("reptile", config));
    std::ostringstream out;
    const auto report = pipeline.run(factory_for(input), out).report;
    EXPECT_EQ(report.note_or("reptile_params"), note(k == 0 ? derived : at_12))
        << k;
  }
}

// Reptile chooses Cg and Cm from the corrector's own tile table, counted
// from the reads with eligible N's converted. On reads dense in N's that
// rule reports other thresholds than the rule on a raw-read table would.
TEST(CorrectionPipeline, ReptileThresholdsComeFromTheCorrectorsTiles) {
  util::Rng rng(9);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  const auto genome = sim::simulate_genome(gspec, rng);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 30;
  cfg.ambiguous_rate = 0.03;
  const auto run = sim::simulate_reads(
      genome.sequence, sim::ErrorModel::illumina(36, 0.01), cfg, rng);
  const auto thresholds = [](const reptile::ReptileParams& p) {
    return "Cg:" + std::to_string(p.c_good) + ",Cm:" + std::to_string(p.c_min);
  };

  auto expected = reptile::select_read_parameters(run.reads, 20000);
  const reptile::ReptileCorrector corrector(run.reads, expected);
  reptile::select_thresholds(corrector.tiles(), expected);
  ASSERT_NE(thresholds(expected),
            thresholds(reptile::select_parameters(run.reads, 20000)));

  core::CorrectorConfig config;
  config.genome_length = 20000;
  core::CorrectionPipeline pipeline(core::make_corrector("reptile", config));
  std::ostringstream out;
  const auto report = pipeline.run(factory_for(to_fastq(run.reads)), out).report;
  const std::string note(report.note_or("reptile_params"));
  EXPECT_NE(note.find(thresholds(expected)), std::string::npos) << note;
}

TEST(CorrectionPipeline, NullCorrectorThrows) {
  EXPECT_THROW(core::CorrectionPipeline(nullptr), std::invalid_argument);
}

TEST(CorrectionPipeline, EmptyInputProducesEmptyOutput) {
  core::CorrectionPipeline pipeline(core::make_corrector("sap", {}));
  std::ostringstream out;
  const auto result = pipeline.run(factory_for(""), out);
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(result.report.reads, 0u);
  EXPECT_EQ(result.batches, 0u);
}

// REDEEM's misread model is built from the error rate, so redeem and the
// hybrid reject a rate that is not a probability (NaN included) with a
// message naming the method, and accept the bounds.
TEST(Registry, RejectsErrorRateOutsideUnitInterval) {
  core::CorrectorConfig config;
  for (const char* method : {"redeem", "hybrid"}) {
    for (const double rate : {0.0, 0.01, 1.0}) {
      config.error_rate = rate;
      EXPECT_NO_THROW((void)core::make_corrector(method, config))
          << method << " rate " << rate;
    }
    for (const double rate : {-1.0, -1e-9, 1.5, std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
      config.error_rate = rate;
      try {
        (void)core::make_corrector(method, config);
        ADD_FAILURE() << method << " accepted rate " << rate;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(method), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Registry, CustomRegistrationShadowsAndLists) {
  // A test double registered under a fresh name shows up in the list and
  // is constructible through make_corrector.
  class Passthrough final : public core::Corrector {
   public:
    std::string_view method() const noexcept override { return "identity"; }
    void build(const seq::ReadSet&) override { mark_ready(); }
    void correct_batch(std::span<const seq::Read> in,
                       std::vector<seq::Read>& out,
                       core::CorrectionReport& report,
                       core::BatchScratch*) const override {
      require_ready();
      for (const auto& r : in) {
        out.push_back(r);
        core::tally_read(r, r, report);
      }
    }
  };
  core::register_corrector({"identity", "test passthrough"},
                           [](const core::CorrectorConfig&) {
                             return std::make_unique<Passthrough>();
                           });
  const auto corrector = core::make_corrector("identity");
  seq::ReadSet reads;
  reads.reads.push_back({"r1", "ACGT", {30, 30, 30, 30}});
  corrector->build(reads);
  core::CorrectionReport report;
  const auto out = corrector->correct_all(reads, report);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bases, "ACGT");
  EXPECT_EQ(report.reads, 1u);
  EXPECT_EQ(report.reads_changed, 0u);
}

}  // namespace
