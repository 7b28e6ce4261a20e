// Tests for the bounded-memory spectrum builder (Sec. 2.3's
// divide-and-merge strategy).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "spectrum_reference.hpp"

namespace {

using namespace ngs;
using ref::expect_byte_identical;
using ref::reference_spectrum;

sim::SimulatedReads make_run(std::uint64_t seed) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 25.0;
  return sim::simulate_reads(genome.sequence, model, cfg, rng);
}

TEST(ChunkedBuilder, MatchesMonolithicBuild) {
  const auto run = make_run(3);
  const auto reference = reference_spectrum(run.reads, 13, true);

  for (const std::size_t batch : {2048ul, 16384ul, std::size_t{1} << 22}) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    kspec::ChunkedSpectrumBuilder builder(13, true, batch);
    builder.add_read_batch(run.reads.reads);
    expect_byte_identical(builder.finish(), reference);
  }
}

TEST(ChunkedBuilder, ByteIdenticalAcrossPoolSizes) {
  const auto run = make_run(9);
  const auto reference = reference_spectrum(run.reads, 13, true);

  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::ThreadPool pool(threads);
    kspec::ChunkedSpectrumBuilder builder(13, true, 4096, &pool);
    builder.add_read_batch(run.reads.reads);
    expect_byte_identical(builder.finish(), reference);
  }
}

TEST(ChunkedBuilder, PeakBufferIsBounded) {
  const auto run = make_run(5);
  constexpr std::size_t kBatch = 4096;
  kspec::ChunkedSpectrumBuilder builder(13, true, kBatch);
  builder.add_read_batch(run.reads.reads);
  // The buffer flushes the moment it fills, mid-read if need be.
  EXPECT_LE(builder.peak_buffered(), kBatch);
  (void)builder.finish();
}

/// Random bases with an N every ~500, so windows restart mid-read.
std::string random_read(util::Rng& rng, std::size_t length) {
  std::string read(length, 'A');
  for (char& c : read) c = "ACGT"[rng() % 4];
  for (std::size_t i = rng() % 500; i < length; i += 400 + rng() % 200) {
    read[i] = 'N';
  }
  return read;
}

TEST(ChunkedBuilder, ReadsLongerThanOneBatchMatchSerialBuild) {
  util::Rng rng(21);
  seq::ReadSet reads;
  for (const std::size_t length : {3000ul, 700ul, 5000ul, 1024ul, 2500ul}) {
    reads.reads.push_back({"r", random_read(rng, length), {}});
  }
  for (int i = 0; i < 3; ++i) reads.reads.push_back(reads.reads[i]);
  for (const bool both : {false, true}) {
    const auto reference = reference_spectrum(reads, 11, both);
    for (const std::size_t threads : {1ul, 2ul, 4ul}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " both=" << both);
      util::ThreadPool pool(threads);
      // 1024 is the floor, so the buffer fills in the middle of reads.
      kspec::ChunkedSpectrumBuilder builder(11, both, 1024, &pool);
      builder.add_read_batch(reads.reads);
      EXPECT_EQ(builder.peak_buffered(), 1024u);
      expect_byte_identical(builder.finish(), reference);
    }
  }
}

TEST(ChunkedBuilder, StreamsFastqWithoutReadSet) {
  const auto run = make_run(7);
  std::stringstream fastq;
  io::write_fastq(fastq, run.reads);

  // The pass-1 loop of core::build_spectrum: parse a batch, add it.
  kspec::ChunkedSpectrumBuilder builder(13, true, 8192);
  io::FastqStreamReader reader(fastq);
  std::vector<seq::Read> batch;
  while (reader.read_batch(batch, 1000) > 0) {
    builder.add_read_batch(batch);
    batch.clear();
  }
  expect_byte_identical(builder.finish(),
                        reference_spectrum(run.reads, 13, true));
}

/// Counts one read as a batch of its own.
void add_one(kspec::ChunkedSpectrumBuilder& builder, std::string bases) {
  const seq::Read read{"r", std::move(bases), {}};
  builder.add_read_batch({&read, 1});
}

TEST(ChunkedBuilder, ReusableAfterFinish) {
  kspec::ChunkedSpectrumBuilder builder(8, false, 2048);
  add_one(builder, "ACGTACGTACGT");
  const auto first = builder.finish();
  EXPECT_GT(first.size(), 0u);
  add_one(builder, "TTTTTTTTTT");
  const auto second = builder.finish();
  EXPECT_TRUE(second.contains(seq::encode_kmer("TTTTTTTT").value()));
  EXPECT_FALSE(second.contains(seq::encode_kmer("ACGTACGT").value()));
}

TEST(ChunkedBuilder, EmptyInput) {
  kspec::ChunkedSpectrumBuilder builder(11);
  const auto spec = builder.finish();
  EXPECT_EQ(spec.size(), 0u);
  EXPECT_TRUE(spec.empty());
}

// --- Out-of-core (budget/spill) path ----------------------------------

kspec::SpillOptions spill_options(std::size_t budget) {
  kspec::SpillOptions spill;
  spill.memory_budget_bytes = budget;
  spill.spill_dir = testing::TempDir();
  return spill;
}

TEST(ChunkedBuilder, SpilledBuildMatchesInMemoryByteForByte) {
  const auto run = make_run(11);
  const auto reference = reference_spectrum(run.reads, 13, true);

  // The floor for this dataset is the finish-phase working set of the
  // largest prefix bin (~301 KB); budgets below that cannot be honored.
  for (const std::size_t budget : {std::size_t{350000}, std::size_t{600000}}) {
    kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                          spill_options(budget));
    builder.add_read_batch(run.reads.reads);
    EXPECT_TRUE(builder.spilled()) << "budget=" << budget;
    const auto spilled = builder.finish();
    EXPECT_GT(builder.spill_bytes(), 0u);
    EXPECT_GT(builder.peak_tracked_bytes(), 0u);
    EXPECT_LE(builder.peak_tracked_bytes(), budget) << "budget=" << budget;
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    expect_byte_identical(spilled, reference);
  }
}

TEST(ChunkedBuilder, UnderBudgetNeverSpills) {
  const auto run = make_run(13);
  kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                        spill_options(std::size_t{1} << 30));
  builder.add_read_batch(run.reads.reads);
  EXPECT_FALSE(builder.spilled());
  const auto spec = builder.finish();
  EXPECT_EQ(builder.spill_bytes(), 0u);
  expect_byte_identical(spec, reference_spectrum(run.reads, 13, true));
}

TEST(ChunkedBuilder, FinishSpilledStreamsDisjointAscendingRuns) {
  const auto run = make_run(17);
  const auto reference = reference_spectrum(run.reads, 13, true);

  kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                        spill_options(250000));
  builder.add_read_batch(run.reads.reads);
  ASSERT_TRUE(builder.spilled());
  builder.flush_spill();
  const std::size_t bins = builder.spill_nonempty_bins();
  EXPECT_GE(bins, 2u);
  const int shard_bits = builder.spill_shard_bits();
  const int shift = 2 * 13 - shard_bits;

  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> counts;
  std::size_t runs = 0;
  std::uint32_t last_prefix = 0;
  builder.finish_spilled([&](kspec::ChunkedSpectrumBuilder::SortedRun&& r) {
    if (runs > 0) {
      EXPECT_GT(r.prefix, last_prefix) << "prefix order";
    }
    last_prefix = r.prefix;
    ++runs;
    ASSERT_FALSE(r.codes.empty());
    for (const seq::KmerCode c : r.codes) {
      ASSERT_EQ(static_cast<std::uint32_t>(c >> shift), r.prefix);
    }
    codes.insert(codes.end(), r.codes.begin(), r.codes.end());
    counts.insert(counts.end(), r.counts.begin(), r.counts.end());
  });
  EXPECT_EQ(runs, bins);
  ASSERT_EQ(codes.size(), reference.size());
  EXPECT_TRUE(std::equal(codes.begin(), codes.end(),
                         reference.codes().begin(), reference.codes().end()));
  EXPECT_TRUE(std::equal(counts.begin(), counts.end(),
                         reference.counts().begin(),
                         reference.counts().end()));
}

TEST(ChunkedBuilder, LongReadStaysUnderBudget) {
  constexpr std::size_t kBudget = std::size_t{1} << 20;
  util::Rng rng(100000);
  std::string read(100000, 'A');
  for (char& c : read) c = "ACGT"[rng() % 4];
  seq::ReadSet reads;
  reads.reads.push_back({"long", read, {}});

  kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                        spill_options(kBudget));
  builder.add_read_batch(reads.reads);
  EXPECT_TRUE(builder.spilled());
  const auto spilled = builder.finish();
  EXPECT_LE(builder.peak_tracked_bytes(), kBudget);
  expect_byte_identical(spilled, reference_spectrum(reads, 13, true));
}

TEST(ChunkedBuilder, SpilledBuilderIsReusable) {
  kspec::ChunkedSpectrumBuilder builder(8, true, 1 << 20,
                                        nullptr, spill_options(100000));
  // Force a spill on the first build by exceeding the minimum threshold.
  std::string read(5000, 'A');
  for (std::size_t i = 0; i < read.size(); i += 7) read[i] = 'C';
  for (int r = 0; r < 12; ++r) add_one(builder, read);
  EXPECT_TRUE(builder.spilled());
  const auto first = builder.finish();
  EXPECT_GT(first.size(), 0u);

  add_one(builder, "TTTTTTTTTT");
  EXPECT_FALSE(builder.spilled()) << "finish() must reset the spill state";
  const auto second = builder.finish();
  EXPECT_TRUE(second.contains(seq::encode_kmer("TTTTTTTT").value()));
}

TEST(KSpectrum, FromSortedCountsValidates) {
  // Size mismatch throws in every build mode; the O(n) order/count scan
  // is debug-only, so out-of-order codes are asserted through the
  // always-available validate_sorted_counts entry point instead.
  EXPECT_THROW(kspec::KSpectrum::from_sorted_counts({1, 2}, {1}, 8),
               std::invalid_argument);
  const std::vector<seq::KmerCode> unsorted{2, 1};
  const std::vector<std::uint32_t> ones{1, 1};
  EXPECT_TRUE(
      kspec::KSpectrum::validate_sorted_counts(unsorted, ones, 8).has_value());
#ifndef NDEBUG
  EXPECT_THROW(kspec::KSpectrum::from_sorted_counts({2, 1}, {1, 1}, 8),
               std::invalid_argument);
#endif
  const auto s = kspec::KSpectrum::from_sorted_counts({5, 9}, {3, 4}, 8);
  EXPECT_EQ(s.count(5), 3u);
  EXPECT_EQ(s.total_instances(), 7u);
}

}  // namespace
