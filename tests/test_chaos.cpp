// Chaos suite: drives every fault-injection site in the catalog through
// the real production paths and asserts the failure handling the DESIGN
// "Failure model" section promises — typed errors with located messages,
// graceful degradation counted in the report, bounded transient retry,
// atomic output, and byte-identical results when a fault is absorbed.
//
// Chaos.EverySiteInCatalogFires is the sweep the asan preset runs: a
// site added to fault/sites.hpp without a scenario here fails the test.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "kspec/kspectrum.hpp"
#include "mapreduce/job.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }

  fault::Registry& reg() { return fault::Registry::instance(); }

  void expect_fired(const char* site) {
    EXPECT_GE(reg().stats(site).fires, 1u) << site << " never fired";
  }
};

std::string make_fastq(std::uint64_t seed) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 5000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 8.0;
  const auto run = sim::simulate_reads(genome.sequence, model, cfg, rng);
  std::ostringstream os;
  io::write_fastq(os, run.reads);
  return os.str();
}

core::CorrectionPipeline::StreamFactory factory_for(std::string fastq) {
  return [fastq = std::move(fastq)] {
    return std::make_unique<std::istringstream>(fastq);
  };
}

/// Fresh sap pipeline (streaming two-pass path, small batches so pass 2
/// sees several batches).
core::CorrectionPipeline make_pipeline(
    core::PipelineOptions options = {}) {
  options.batch_size = options.batch_size != 4096 ? options.batch_size : 256;
  options.threads = 2;
  options.io_retry_backoff_ms = 0;
  return core::CorrectionPipeline(core::make_corrector("sap"),
                                  std::move(options));
}

core::PipelineResult run_pipeline(const std::string& fastq, std::string* out,
                                  core::PipelineOptions options = {}) {
  auto pipeline = make_pipeline(std::move(options));
  std::ostringstream os;
  auto result = pipeline.run(factory_for(fastq), os);
  if (out != nullptr) *out = os.str();
  return result;
}

std::string temp_path(const std::string& name) {
  // The pid keeps concurrent test processes (ctest -j runs each test
  // and the labelled subsets that repeat it) off each other's files.
  return testing::TempDir() + "ngs_chaos_" + std::to_string(::getpid()) + "_" +
         name;
}

/// Small deterministic spectrum + index file for the index.* sites.
std::string write_test_index(const std::string& name) {
  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> counts;
  for (seq::KmerCode c = 3; c < 2000; c += 7) {
    codes.push_back(c);
    counts.push_back(1 + static_cast<std::uint32_t>(c % 9));
  }
  const auto spectrum =
      kspec::KSpectrum::from_sorted_counts(std::move(codes),
                                           std::move(counts), 12);
  index::IndexBuildInfo build;
  build.k = 12;
  build.both_strands = true;
  build.input_reads = 10;
  build.input_bases = 360;
  build.max_read_length = 36;
  const std::string path = temp_path(name + ".ngsx");
  index::write_spectrum_index(path, spectrum, build);
  return path;
}

/// Deterministic version-2 sharded index (4 prefix shards, k=12).
std::string write_sharded_test_index(const std::string& name) {
  constexpr int k = 12;
  constexpr int shard_bits = 2;
  index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = true;
  build.input_reads = 10;
  build.input_bases = 360;
  build.max_read_length = 36;
  const std::string path = temp_path(name + ".ngsx");
  index::ShardedIndexWriter writer(path, build, shard_bits, 4);
  const seq::KmerCode span = seq::KmerCode{1} << (2 * k - shard_bits);
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
    for (seq::KmerCode c = 3; c < 2000; c += 7) {
      codes.push_back(p * span + c);
      counts.push_back(1 + static_cast<std::uint32_t>(c % 9));
    }
    writer.append_shard(p, std::move(codes), std::move(counts));
  }
  writer.finish();
  return path;
}

/// Pipeline options that force the pass-1 build through the spill path
/// on the small chaos FASTQs (threshold = budget/24 instances, well
/// under the ~25k instances the 5000bp/8x input produces).
core::PipelineOptions budget_options() {
  core::PipelineOptions options;
  options.memory_budget_bytes = 200000;
  options.spill_dir = testing::TempDir();
  return options;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// ---------------------------------------------------------------------
// Per-site scenarios. Each arms exactly the site under test (plus any
// site needed to reach it), drives the production path, and asserts
// both the visible behavior and that the site really fired.

TEST_F(ChaosTest, FastqOpenFailureIsTypedAndFatal) {
  reg().configure("io.fastq.open=n1");
  const std::string fastq = make_fastq(1);
  try {
    run_pipeline(fastq, nullptr);
    FAIL() << "expected open failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kFastqOpen);
    EXPECT_EQ(tool_exit_code(e.kind()), 3);
  }
  expect_fired(fault::sites::kFastqOpen);
}

TEST_F(ChaosTest, FastqReadFailurePropagatesEvenInSkipMode) {
  reg().configure("io.fastq.read=n1");
  core::PipelineOptions options;
  options.on_bad_record = io::BadRecordPolicy::kSkip;
  const std::string fastq = make_fastq(2);
  try {
    run_pipeline(fastq, nullptr, options);
    FAIL() << "expected read failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo) << "I/O errors are never skippable";
    EXPECT_EQ(e.site(), fault::sites::kFastqRead);
  }
  expect_fired(fault::sites::kFastqRead);
}

TEST_F(ChaosTest, MalformedRecordFailsLocatedOrSkipsCounted) {
  const std::string fastq = make_fastq(3);

  reg().configure("io.fastq.malformed=n1");
  try {
    run_pipeline(fastq, nullptr);
    FAIL() << "expected parse failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find("record 1"), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
  expect_fired(fault::sites::kFastqMalformed);

  // Same fault under --on-bad-record skip: the run completes, minus the
  // poisoned record, and says so.
  reg().reset();
  reg().configure("io.fastq.malformed=n1");
  core::PipelineOptions options;
  options.on_bad_record = io::BadRecordPolicy::kSkip;
  std::string out;
  const auto result = run_pipeline(fastq, &out, options);
  EXPECT_GE(result.reads_skipped, 1u);
  EXPECT_EQ(result.report.extra("reads_skipped"), result.reads_skipped);
  EXPECT_FALSE(out.empty());
}

TEST_F(ChaosTest, IndexOpenFailureIsIndexError) {
  const std::string path = write_test_index("open");
  reg().configure("index.open=n1");
  EXPECT_THROW((void)index::SpectrumIndex::load(path), index::IndexError);
  expect_fired(fault::sites::kIndexOpen);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, MmapFailureFallsBackToOwnedBuffer) {
  const std::string path = write_test_index("mmap");
  const auto direct = index::SpectrumIndex::load(path);
  reg().configure("index.mmap=n1");
  const auto fallback = index::SpectrumIndex::load(path);
  EXPECT_FALSE(fallback.info().mapped)
      << "mmap fault must force the owned-buffer path";
  EXPECT_EQ(fallback.info().checksum, direct.info().checksum);
  EXPECT_EQ(fallback.spectrum().size(), direct.spectrum().size());
  expect_fired(fault::sites::kIndexMmap);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, IndexShortReadIsTruncatedError) {
  const std::string path = write_test_index("short");
  reg().configure("index.short_read=n1");
  try {
    (void)index::SpectrumIndex::load(path);
    FAIL() << "expected truncation error";
  } catch (const index::IndexError& e) {
    EXPECT_EQ(e.index_kind(), index::IndexError::Kind::kTruncated);
    EXPECT_EQ(e.kind(), ErrorKind::kIndex);
    EXPECT_EQ(tool_exit_code(e.kind()), 4);
  }
  expect_fired(fault::sites::kIndexShortRead);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, IndexChecksumFaultIsChecksumError) {
  const std::string path = write_test_index("checksum");
  reg().configure("index.checksum=n1");
  index::LoadOptions options;
  options.verify_checksums = true;
  try {
    (void)index::SpectrumIndex::load(path, options);
    FAIL() << "expected checksum error";
  } catch (const index::IndexError& e) {
    EXPECT_EQ(e.index_kind(), index::IndexError::Kind::kChecksum);
  }
  expect_fired(fault::sites::kIndexChecksum);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, IndexWriteFailureLeavesNoFileBehind) {
  reg().configure("index.write=n1");
  const std::string path = temp_path("write.ngsx");
  EXPECT_THROW(write_test_index("write"), index::IndexError);
  expect_fired(fault::sites::kIndexWrite);
  EXPECT_FALSE(file_exists(path)) << "failed write must not leave " << path;
  EXPECT_FALSE(file_exists(path + ".tmp"))
      << "failed write must clean up its temp file";
}

TEST_F(ChaosTest, SpillWriteFailureIsTypedIoError) {
  reg().configure("kspec.spill.write=n1");
  try {
    run_pipeline(make_fastq(11), nullptr, budget_options());
    FAIL() << "expected spill write failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kSpillWrite);
    EXPECT_EQ(tool_exit_code(e.kind()), 3);
  }
  expect_fired(fault::sites::kSpillWrite);
}

TEST_F(ChaosTest, SpillReadFailureIsTypedIoError) {
  reg().configure("kspec.spill.read=n1");
  try {
    run_pipeline(make_fastq(12), nullptr, budget_options());
    FAIL() << "expected spill read failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kSpillRead);
  }
  expect_fired(fault::sites::kSpillRead);
}

TEST_F(ChaosTest, ShardMmapFaultFallsBackToOwnedBuffers) {
  // A sharded file is mapped once like a monolithic one, so the
  // index.mmap fallback serves its shards from the owned buffer.
  const std::string path = write_sharded_test_index("shard_mmap");
  const auto direct = index::SpectrumIndex::load(path);
  EXPECT_TRUE(direct.info().mapped);
  reg().configure("index.mmap=always");
  const auto fallback = index::SpectrumIndex::load(path);
  EXPECT_FALSE(fallback.info().mapped)
      << "mmap fault must force the owned-buffer path";
  const auto& a = direct.spectrum();
  const auto& b = fallback.spectrum();
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(b.code_at(i), a.code_at(i));
    EXPECT_EQ(b.count_at(i), a.count_at(i));
  }
  expect_fired(fault::sites::kIndexMmap);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, TransientOpenFaultIsRetriedAndAbsorbed) {
  const std::string fastq = make_fastq(4);
  std::string clean;
  run_pipeline(fastq, &clean);

  reg().configure("core.open_input.transient=n1");
  std::string out;
  const auto result = run_pipeline(fastq, &out);
  EXPECT_GE(result.io_retries, 1u);
  EXPECT_EQ(result.report.extra("io_retries"), result.io_retries);
  EXPECT_EQ(out, clean) << "an absorbed transient must not change output";
  expect_fired(fault::sites::kOpenInputTransient);
}

TEST_F(ChaosTest, TransientOpenFaultExhaustsBudget) {
  reg().configure("core.open_input.transient=always");
  core::PipelineOptions options;
  options.io_retry_attempts = 2;
  try {
    run_pipeline(make_fastq(5), nullptr, options);
    FAIL() << "expected retry exhaustion";
  } catch (const Error& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.site(), fault::sites::kOpenInputTransient);
  }
  EXPECT_GE(reg().stats(fault::sites::kOpenInputTransient).fires, 2u);
}

TEST_F(ChaosTest, Pass2BatchFaultIsSalvagedByteIdentically) {
  const std::string fastq = make_fastq(6);
  std::string clean;
  run_pipeline(fastq, &clean);

  reg().configure("core.pass2.batch=n1");
  std::string out;
  const auto result = run_pipeline(fastq, &out);
  EXPECT_GE(result.report.extra("batches_salvaged"), 1u);
  EXPECT_EQ(result.reads_failed, 0u)
      << "per-read salvage should re-correct every read";
  EXPECT_EQ(out, clean)
      << "salvaged batch must produce byte-identical output";
  expect_fired(fault::sites::kPass2Batch);
}

TEST_F(ChaosTest, Pass2ReadFaultDegradesExactlyOneRead) {
  const std::string fastq = make_fastq(7);
  std::string clean;
  const auto clean_result = run_pipeline(fastq, &clean);

  // Fail every batch so every read goes through per-read salvage, then
  // fail exactly one read's salvage: that read passes through
  // uncorrected, the rest of the run is unaffected.
  reg().configure("core.pass2.batch=always,core.pass2.read=n1");
  std::string out;
  const auto result = run_pipeline(fastq, &out);
  EXPECT_EQ(result.reads_failed, 1u);
  EXPECT_EQ(result.report.extra("reads_failed"), 1u);
  EXPECT_EQ(result.report.reads, clean_result.report.reads)
      << "degradation must not drop reads";
  // Same record structure: line count (4 per record) is preserved.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(clean.begin(), clean.end(), '\n'));
  expect_fired(fault::sites::kPass2Read);
}

TEST_F(ChaosTest, OutputWriteFaultAbortsRunFileAtomically) {
  const std::string fastq = make_fastq(8);
  const std::string in_path = temp_path("in.fastq");
  const std::string out_path = temp_path("out.fastq");
  {
    std::ofstream os(in_path);
    os << fastq;
  }
  reg().configure("core.output.write=n1");
  auto pipeline = make_pipeline();
  try {
    pipeline.run_file(in_path, out_path);
    FAIL() << "expected write failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kOutputWrite);
  }
  expect_fired(fault::sites::kOutputWrite);
  EXPECT_FALSE(file_exists(out_path))
      << "failed run must not leave a truncated output FASTQ";
  EXPECT_FALSE(file_exists(out_path + ".tmp"))
      << "failed run must clean up its temp file";
  std::remove(in_path.c_str());
}

TEST_F(ChaosTest, PipelineReaderFaultTearsDownOverlappedRunTyped) {
  // Fires on the pass-1 read-ahead thread first: the error must cross
  // the bounded queue back to the calling thread as the original typed
  // error — and the test completing at all proves nothing hung.
  reg().configure("core.pipeline.reader=n1");
  try {
    run_pipeline(make_fastq(13), nullptr);
    FAIL() << "expected reader-task failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kPipelineReader);
    EXPECT_EQ(tool_exit_code(e.kind()), 3);
  }
  expect_fired(fault::sites::kPipelineReader);

  // A buffered-input method has no pass-1 reader task, so the first
  // firing lands in pass 2's executor producer instead: same typed
  // teardown through the full reorder pipeline.
  reg().reset();
  reg().configure("core.pipeline.reader=n1");
  core::PipelineOptions buffered;
  buffered.batch_size = 256;
  buffered.threads = 2;
  core::CorrectionPipeline reptile(core::make_corrector("reptile"),
                                   buffered);
  std::ostringstream os;
  try {
    reptile.run(factory_for(make_fastq(13)), os);
    FAIL() << "expected pass-2 reader-task failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.site(), fault::sites::kPipelineReader);
  }
  expect_fired(fault::sites::kPipelineReader);
}

TEST_F(ChaosTest, PipelineWriterFaultAbortsRunFileAtomically) {
  const std::string fastq = make_fastq(14);
  const std::string in_path = temp_path("wfault_in.fastq");
  const std::string out_path = temp_path("wfault_out.fastq");
  {
    std::ofstream os(in_path);
    os << fastq;
  }
  reg().configure("core.pipeline.writer=n1");
  auto pipeline = make_pipeline();
  try {
    pipeline.run_file(in_path, out_path);
    FAIL() << "expected writer-task failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_EQ(e.site(), fault::sites::kPipelineWriter);
  }
  expect_fired(fault::sites::kPipelineWriter);
  EXPECT_FALSE(file_exists(out_path))
      << "failed overlapped run must not leave a truncated output FASTQ";
  EXPECT_FALSE(file_exists(out_path + ".tmp"))
      << "failed overlapped run must clean up its temp file";
  std::remove(in_path.c_str());
}

TEST_F(ChaosTest, MapTaskFaultIsRetriedFromItsSplit) {
  std::vector<std::pair<int, std::string>> docs;
  for (int i = 0; i < 32; ++i) docs.emplace_back(i, "x");
  using CountJob = mapreduce::Job<int, std::string, std::string, int,
                                  std::string, int>;
  const auto map_fn = [](const int&, const std::string& s,
                         mapreduce::Emitter<std::string, int>& out) {
    out.emit(s, 1);
  };
  const auto reduce_fn = [](const std::string& k, std::span<const int> vs,
                            mapreduce::Emitter<std::string, int>& out) {
    out.emit(k, static_cast<int>(vs.size()));
  };

  reg().configure("mapreduce.map_task=n1");
  mapreduce::JobCounters counters;
  const auto result =
      CountJob::run(docs, map_fn, reduce_fn, {}, &counters);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].second, 32) << "retry must not duplicate records";
  EXPECT_GE(counters.map_task_failures, 1u);
  expect_fired(fault::sites::kMapTask);

  // Budget exhaustion surfaces as the typed TaskFailedError.
  reg().reset();
  reg().configure("mapreduce.map_task=always");
  mapreduce::JobConfig config;
  config.max_task_attempts = 2;
  config.num_map_tasks = 1;
  try {
    CountJob::run(docs, map_fn, reduce_fn, config);
    FAIL() << "expected retry-budget exhaustion";
  } catch (const mapreduce::TaskFailedError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTask);
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------
// The sweep: every catalog site must fire at least once through a real
// production path. Forgetting to add a scenario for a new site fails
// here, not silently.

/// One short daemon conversation that reaches every service.* site:
/// accept (acceptor poll loop), frame read/write (client and server
/// FrameChannels share the process-global registry — either side
/// firing counts), a corrected batch on a worker, and an epoch
/// rebuild. The armed fault may surface anywhere in the conversation
/// as a typed error; the sweep only asserts coverage. service.reload
/// also guards the initial epoch build, so even start() may throw.
void run_service_scenario(const std::string& index_path) {
  service::ServiceOptions options;
  options.socket_path = testing::TempDir() + "ngs_chaos_" +
                        std::to_string(::getpid()) + "_svc.sock";
  options.workers = 1;
  service::IndexRegistryConfig registry;
  registry.index_paths.push_back(index_path);
  service::CorrectionServer server(options, registry);
  try {
    server.start();
    try {
      service::Client client(options.socket_path);
      client.connect();
      service::HelloRequest hello;
      hello.method = "sap";
      hello.k = 12;  // the sweep index's k
      hello.genome_length = 5000;
      (void)client.hello(hello);
      service::ReadBatch batch;
      batch.reads.push_back({"r", std::string(36, 'A'), {}});
      client.send_request(batch);
      (void)client.read_reply();
    } catch (const Error&) {
    }
    try {
      (void)server.reload();
    } catch (const Error&) {
    }
  } catch (const Error&) {
  }
  server.stop();
}

TEST_F(ChaosTest, EverySiteInCatalogFires) {
  const std::string fastq = make_fastq(9);
  const std::string index_path = write_test_index("sweep");
  const std::string in_path = temp_path("sweep_in.fastq");
  const std::string out_path = temp_path("sweep_out.fastq");
  {
    std::ofstream os(in_path);
    os << fastq;
  }

  for (const char* site : fault::sites::kAll) {
    reg().reset();
    const std::string name(site);
    if (name == fault::sites::kPass2Read) {
      // The per-read site is only reachable from the salvage path, so
      // the batch site must fail first.
      reg().configure("core.pass2.batch=always,core.pass2.read=n1");
    } else {
      reg().configure(name + "=n1");
    }
    try {
      if (name.rfind("index.", 0) == 0) {
        if (name == fault::sites::kIndexWrite) {
          (void)write_test_index("sweep_w");
        } else {
          index::LoadOptions options;
          options.verify_checksums = true;
          (void)index::SpectrumIndex::load(index_path, options);
        }
      } else if (name == fault::sites::kSpillWrite ||
                 name == fault::sites::kSpillRead) {
        // Spill sites are only reachable from a budget-constrained
        // pass-1 build.
        auto pipeline = make_pipeline(budget_options());
        (void)pipeline.run_file(in_path, out_path);
      } else if (name.rfind("service.", 0) == 0) {
        run_service_scenario(index_path);
      } else if (name == fault::sites::kMapTask) {
        using CountJob = mapreduce::Job<int, std::string, std::string, int,
                                        std::string, int>;
        (void)CountJob::run(
            {{0, "x"}},
            [](const int&, const std::string& s,
               mapreduce::Emitter<std::string, int>& out) { out.emit(s, 1); },
            [](const std::string& k, std::span<const int> vs,
               mapreduce::Emitter<std::string, int>& out) {
              out.emit(k, static_cast<int>(vs.size()));
            });
      } else {
        auto pipeline = make_pipeline();
        (void)pipeline.run_file(in_path, out_path);
      }
    } catch (const Error&) {
      // Expected for the fatal sites; the sweep only asserts coverage.
    }
    EXPECT_GE(reg().stats(site).fires, 1u)
        << site << " has no scenario that reaches it";
  }

  std::remove(index_path.c_str());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

// With nothing armed, the hardened pipeline is the same pipeline:
// byte-identical output and no degradation extras in the report.

TEST_F(ChaosTest, DisarmedRegistryChangesNothing) {
  const std::string fastq = make_fastq(10);
  std::string out;
  const auto result = run_pipeline(fastq, &out);
  EXPECT_EQ(result.reads_skipped, 0u);
  EXPECT_EQ(result.reads_failed, 0u);
  EXPECT_EQ(result.io_retries, 0u);
  EXPECT_EQ(result.report.extra("reads_skipped"), 0u);
  EXPECT_EQ(result.report.extra("reads_failed"), 0u);
  EXPECT_EQ(result.report.extra("io_retries"), 0u);
  EXPECT_EQ(result.report.extra("batches_salvaged"), 0u);
  EXPECT_TRUE(reg().all_stats().empty());
  EXPECT_FALSE(out.empty());
}

}  // namespace
