// Tests for the per-worker counting lanes behind every spectrum and tile
// count: each worker of a pass counts its batches on its own lane, the
// batches' folds merge the lanes' runs in input order, and the spectra,
// index files and tile tables equal the serial references at every
// worker count, batch size, lane capacity and memory budget.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "kspec/tile_table.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "spectrum_reference.hpp"

namespace {

using namespace ngs;

constexpr std::size_t kWorkers[] = {1, 2, 3, 4};
constexpr std::size_t kBatches[] = {1, 37, 4096};

/// Appends three reads of a few thousand bases with N's, each longer
/// than a 1024-instance lane.
void add_long_reads(seq::ReadSet& reads, util::Rng& rng) {
  for (const std::size_t length : {3000ul, 1700ul, 2500ul}) {
    std::string bases(length, 'A');
    for (char& c : bases) c = "ACGT"[rng() % 4];
    for (std::size_t i = rng() % 400; i < length; i += 300 + rng() % 200) {
      bases[i] = 'N';
    }
    reads.reads.push_back(
        {"long", bases, std::vector<std::uint8_t>(length, 30)});
  }
}

/// A simulated 36 bp run at ~6x and add_long_reads.
seq::ReadSet lane_reads(std::uint64_t seed) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 8000;
  const auto genome = sim::simulate_genome(gspec, rng);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 6.0;
  auto reads =
      sim::simulate_reads(genome.sequence,
                          sim::ErrorModel::illumina(36, 0.01), cfg, rng)
          .reads;
  add_long_reads(reads, rng);
  return reads;
}

std::string to_fastq(const seq::ReadSet& reads) {
  std::ostringstream os;
  io::write_fastq(os, std::span<const seq::Read>(reads.reads));
  return os.str();
}

core::StreamFactory factory_for(const std::string& fastq) {
  return [&fastq]() -> std::unique_ptr<std::istream> {
    return std::make_unique<std::istringstream>(fastq);
  };
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// A directory of its own under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "ngs_lanes_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CountLanes, SpectrumMatchesReferenceAtEveryWorkerBatchAndCapacity) {
  const auto reads = lane_reads(3);
  for (const bool both : {false, true}) {
    const auto reference = ref::reference_spectrum(reads, 13, both);
    for (const std::size_t workers : kWorkers) {
      util::ThreadPool pool(workers);
      for (const std::size_t batch : kBatches) {
        for (const std::size_t capacity : {1024ul, std::size_t{1} << 20}) {
          SCOPED_TRACE(::testing::Message()
                       << "both=" << both << " workers=" << workers
                       << " batch=" << batch << " capacity=" << capacity);
          const seq::ReadPass pass = seq::pass_over(reads, workers, batch);
          kspec::ChunkedSpectrumBuilder builder(13, both, capacity, &pool, {},
                                                pass.workers);
          pass([&builder](std::span<const seq::Read> b, std::size_t lane) {
            return builder.count(b, lane);
          });
          EXPECT_LE(builder.peak_buffered(), capacity);
          ref::expect_byte_identical(builder.finish(), reference);
        }
      }
    }
  }
}

// Pass 1 of ngs-index build and of every spectrum method, through the
// pipeline's executor: the saved index is byte for byte the file the
// reference spectrum writes, with and without a budget, and a budgeted
// build tracks no more than its budget at any worker count.
TEST(CountLanes, IndexBytesMatchReferenceAtEveryWorkerBatchAndBudget) {
  constexpr int k = 12;
  constexpr std::size_t kBudget = std::size_t{1} << 20;
  const auto reads = lane_reads(5);
  const std::string fastq = to_fastq(reads);
  const std::string dir = fresh_dir("index");

  index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = true;
  for (const auto& r : reads.reads) {
    ++build.input_reads;
    build.input_bases += r.bases.size();
    build.max_read_length = std::max(
        build.max_read_length, static_cast<std::uint32_t>(r.bases.size()));
  }
  const std::string reference_path = dir + "/reference.ngsx";
  index::write_spectrum_index(reference_path,
                              ref::reference_spectrum(reads, k, true), build);
  const std::string reference = slurp(reference_path);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t workers : kWorkers) {
    for (const std::size_t batch : kBatches) {
      for (const std::size_t budget : {std::size_t{0}, kBudget}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers
                                          << " batch=" << batch
                                          << " budget=" << budget);
        core::PipelineOptions options;
        options.threads = workers;
        options.batch_size = batch;
        options.spectrum_batch_instances = 1024;
        options.memory_budget_bytes = budget;
        options.spill_dir = dir;
        options.save_index_path = dir + "/built.ngsx";
        const auto step =
            core::build_spectrum(options, k, true, factory_for(fastq));
        EXPECT_EQ(step.ingest.workers, workers);
        EXPECT_EQ(step.input.reads, build.input_reads);
        EXPECT_EQ(slurp(options.save_index_path), reference);
        if (budget > 0) {
          EXPECT_TRUE(step.spilled);
          EXPECT_GT(step.peak_tracked_bytes, 0u);
          EXPECT_LE(step.peak_tracked_bytes, budget);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// A spill write that fails on a pass worker, where full lanes spill,
// tears the whole build down with the typed error and leaves no bin
// file behind.
TEST(CountLanes, SpillWriteFaultOnAWorkerIsTypedAndLeavesNoBins) {
  auto& registry = fault::Registry::instance();
  registry.reset();
  registry.configure("kspec.spill.write=n1");
  const auto reads = lane_reads(7);
  const std::string fastq = to_fastq(reads);
  const std::string dir = fresh_dir("fault");
  core::PipelineOptions options;
  options.threads = 4;
  options.batch_size = 64;
  options.memory_budget_bytes = 200000;  // lanes of ~1,041 instances
  options.spill_dir = dir;
  try {
    (void)core::build_spectrum(options, 12, true, factory_for(fastq));
    ADD_FAILURE() << "expected a spill write failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kSpillWrite);
  }
  EXPECT_GE(registry.stats(fault::sites::kSpillWrite).fires, 1u);
  registry.reset();
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(TileLanes, TableMatchesMapOracleAtEveryWorkerBatchAndCapacity) {
  auto reads = ref::oracle_reads(43, 1500);
  util::Rng rng(9);
  add_long_reads(reads, rng);
  struct Case {
    int k, overlap, quality_cutoff;
  };
  for (const Case c : {Case{6, 0, 20}, Case{8, 3, 0}}) {
    kspec::TileParams params;
    params.k = c.k;
    params.overlap = c.overlap;
    params.quality_cutoff = c.quality_cutoff;
    const auto expected = ref::tile_oracle(reads, params);
    for (const std::size_t workers : kWorkers) {
      util::ThreadPool pool(workers);
      for (const std::size_t batch : kBatches) {
        for (const std::size_t capacity : {1024ul, std::size_t{1} << 20}) {
          SCOPED_TRACE(::testing::Message()
                       << "k=" << c.k << " l=" << c.overlap
                       << " workers=" << workers << " batch=" << batch
                       << " capacity=" << capacity);
          const seq::ReadPass pass = seq::pass_over(reads, workers, batch);
          kspec::TileCounter counter(params, capacity, &pool, pass.workers);
          pass([&counter](std::span<const seq::Read> b, std::size_t lane) {
            return counter.count(b, lane);
          });
          ref::expect_table_matches(counter.finish(), expected);
        }
      }
    }
  }
}

}  // namespace
