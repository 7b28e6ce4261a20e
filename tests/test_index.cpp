// Tests for ngs::index — the persistent mmap-able spectrum index:
// round-trip fidelity across k widths and degenerate spectra, loader
// hardening against corrupt/truncated files (distinct IndexError kinds,
// never UB on a short file), and the pipeline-level guarantee that a
// --load-index run produces byte-identical output to a fresh pass-1
// build over the same reads.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "index/format.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastx.hpp"
#include "kspec/kspectrum.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;
using Kind = index::IndexError::Kind;

std::string temp_path(const std::string& name) {
  // The pid keeps concurrent test processes (ctest -j runs each test
  // and the labelled subsets that repeat it) off each other's files.
  return testing::TempDir() + "ngs_index_test_" + std::to_string(::getpid()) + "_" +
         name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good()) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A deterministic random spectrum: `n` strictly ascending codes within
/// the 2k-bit space with positive counts.
kspec::KSpectrum random_spectrum(int k, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const seq::KmerCode mask =
      k == 32 ? ~seq::KmerCode{0} : (seq::KmerCode{1} << (2 * k)) - 1;
  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> counts;
  seq::KmerCode next = 0;
  while (codes.size() < n) {
    next += 1 + rng.below(257);
    if (next > mask) break;
    codes.push_back(next);
    counts.push_back(1 + static_cast<std::uint32_t>(rng.below(100)));
  }
  return kspec::KSpectrum::from_sorted_counts(std::move(codes),
                                              std::move(counts), k);
}

index::IndexBuildInfo build_info_for(const kspec::KSpectrum& spectrum) {
  index::IndexBuildInfo build;
  build.k = spectrum.k();
  build.both_strands = true;
  build.input_reads = 100;
  build.input_bases = 3600;
  build.max_read_length = 36;
  return build;
}

void expect_same_spectrum(const kspec::KSpectrum& loaded,
                          const kspec::KSpectrum& built) {
  ASSERT_EQ(loaded.k(), built.k());
  ASSERT_EQ(loaded.size(), built.size());
  EXPECT_EQ(loaded.total_instances(), built.total_instances());
  EXPECT_EQ(loaded.prefix_index_bits(), built.prefix_index_bits());
  for (std::size_t i = 0; i < built.size(); ++i) {
    ASSERT_EQ(loaded.code_at(i), built.code_at(i)) << "code " << i;
    ASSERT_EQ(loaded.count_at(i), built.count_at(i)) << "count " << i;
  }
  const auto lb = loaded.bucket_starts();
  const auto bb = built.bucket_starts();
  ASSERT_EQ(lb.size(), bb.size());
  for (std::size_t i = 0; i < bb.size(); ++i) {
    ASSERT_EQ(lb[i], bb[i]) << "bucket " << i;
  }
}

Kind load_failure_kind(const std::string& path,
                       const index::LoadOptions& options = {}) {
  try {
    (void)index::SpectrumIndex::load(path, options);
  } catch (const index::IndexError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error message should name the file: " << e.what();
    return e.index_kind();
  }
  ADD_FAILURE() << "load of " << path << " unexpectedly succeeded";
  return Kind::kIo;
}

/// A deterministic spectrum whose codes spread across the whole 2k-bit
/// space (random_spectrum's small steps would land every code in prefix
/// shard 0).
kspec::KSpectrum spread_spectrum(int k, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const seq::KmerCode mask = (seq::KmerCode{1} << (2 * k)) - 1;
  const seq::KmerCode step = mask / n;
  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> counts;
  seq::KmerCode next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    next += 1 + rng.below(2 * step);
    if (next > mask) break;
    codes.push_back(next);
    counts.push_back(1 + static_cast<std::uint32_t>(rng.below(50)));
  }
  return kspec::KSpectrum::from_sorted_counts(std::move(codes),
                                              std::move(counts), k);
}

/// Splits a spectrum by top `shard_bits` prefix and writes it through
/// the streaming sharded writer. Returns the file checksum.
std::uint64_t write_sharded(const std::string& path,
                            const kspec::KSpectrum& spectrum,
                            int shard_bits) {
  const int shift = 2 * spectrum.k() - shard_bits;
  const auto codes = spectrum.codes();
  const auto counts = spectrum.counts();
  struct Span {
    std::uint32_t prefix;
    std::size_t begin, end;
  };
  std::vector<Span> spans;
  for (std::size_t i = 0; i < codes.size();) {
    const auto p = static_cast<std::uint32_t>(codes[i] >> shift);
    std::size_t j = i;
    while (j < codes.size() &&
           static_cast<std::uint32_t>(codes[j] >> shift) == p) {
      ++j;
    }
    spans.push_back({p, i, j});
    i = j;
  }
  index::ShardedIndexWriter writer(path, build_info_for(spectrum),
                                   shard_bits, spans.size());
  for (const auto& s : spans) {
    writer.append_shard(
        s.prefix,
        std::vector<seq::KmerCode>(codes.begin() + s.begin,
                                   codes.begin() + s.end),
        std::vector<std::uint32_t>(counts.begin() + s.begin,
                                   counts.begin() + s.end));
  }
  return writer.finish();
}

TEST(SpectrumIndex, RoundTripAcrossKWidths) {
  for (const int k : {8, 16, 24, 31}) {
    const auto built = random_spectrum(k, 5000, 1000 + k);
    ASSERT_GT(built.size(), 0u);
    const std::string path = temp_path("roundtrip_k" + std::to_string(k));
    const std::uint64_t checksum =
        index::write_spectrum_index(path, built, build_info_for(built));
    EXPECT_NE(checksum, 0u);

    const auto loaded = index::SpectrumIndex::load(path);
    EXPECT_EQ(loaded.info().checksum, checksum);
    EXPECT_EQ(loaded.info().build.k, k);
    EXPECT_TRUE(loaded.info().build.both_strands);
    EXPECT_EQ(loaded.info().build.input_reads, 100u);
    EXPECT_EQ(loaded.info().build.max_read_length, 36u);
    expect_same_spectrum(loaded.spectrum(), built);

    // Random hit/miss queries answer identically through the loaded view.
    util::Rng rng(7 * k);
    const seq::KmerCode mask =
        (seq::KmerCode{1} << (2 * k)) - 1;
    for (int q = 0; q < 2000; ++q) {
      const seq::KmerCode code = (q % 2 == 0)
                                     ? built.code_at(rng.below(built.size()))
                                     : (rng() & mask);
      ASSERT_EQ(loaded.spectrum().index_of(code), built.index_of(code));
      ASSERT_EQ(loaded.spectrum().count(code), built.count(code));
    }
    std::remove(path.c_str());
  }
}

TEST(SpectrumIndex, RoundTripEmptyAndSingleton) {
  const auto empty = kspec::KSpectrum::from_sorted_counts({}, {}, 12);
  const std::string empty_path = temp_path("empty");
  index::write_spectrum_index(empty_path, empty, build_info_for(empty));
  const auto loaded_empty = index::SpectrumIndex::load(empty_path);
  EXPECT_EQ(loaded_empty.spectrum().size(), 0u);
  EXPECT_EQ(loaded_empty.spectrum().total_instances(), 0u);
  EXPECT_FALSE(loaded_empty.spectrum().contains(0));
  std::remove(empty_path.c_str());

  const auto one = kspec::KSpectrum::from_sorted_counts({42}, {7}, 12);
  const std::string one_path = temp_path("singleton");
  index::write_spectrum_index(one_path, one, build_info_for(one));
  const auto loaded_one = index::SpectrumIndex::load(one_path);
  expect_same_spectrum(loaded_one.spectrum(), one);
  EXPECT_EQ(loaded_one.spectrum().count(42), 7u);
  EXPECT_EQ(loaded_one.spectrum().count(41), 0u);
  std::remove(one_path.c_str());
}

TEST(SpectrumIndex, OwnedBufferFallbackMatchesMmap) {
  const auto built = random_spectrum(16, 3000, 99);
  const std::string path = temp_path("owned");
  index::write_spectrum_index(path, built, build_info_for(built));

  index::LoadOptions owned;
  owned.use_mmap = false;
  const auto via_read = index::SpectrumIndex::load(path, owned);
  EXPECT_FALSE(via_read.info().mapped);
  expect_same_spectrum(via_read.spectrum(), built);

  const auto via_mmap = index::SpectrumIndex::load(path);
  expect_same_spectrum(via_mmap.spectrum(), via_read.spectrum());
  std::remove(path.c_str());
}

TEST(SpectrumIndex, SharedSpectrumOutlivesIndexObject) {
  const auto built = random_spectrum(16, 2000, 5);
  const std::string path = temp_path("keepalive");
  index::write_spectrum_index(path, built, build_info_for(built));

  kspec::KSpectrum view;
  {
    const auto loaded = index::SpectrumIndex::load(path);
    view = loaded.share_spectrum();
    EXPECT_TRUE(view.external());
  }  // mapping must stay alive through the keepalive handle
  expect_same_spectrum(view, built);
  std::remove(path.c_str());

  // A sharded file's shard views hold the same shared mapping.
  const auto spread = spread_spectrum(16, 4000, 5);
  const std::string sharded_path = temp_path("keepalive_sharded");
  write_sharded(sharded_path, spread, 2);
  kspec::KSpectrum sharded;
  {
    const auto loaded = index::SpectrumIndex::load(sharded_path);
    sharded = loaded.share_spectrum();
    EXPECT_TRUE(sharded.sharded());
  }
  ASSERT_EQ(sharded.size(), spread.size());
  EXPECT_EQ(sharded.total_instances(), spread.total_instances());
  for (std::size_t i = 0; i < spread.size(); ++i) {
    ASSERT_EQ(sharded.code_at(i), spread.code_at(i)) << "code " << i;
    ASSERT_EQ(sharded.count_at(i), spread.count_at(i)) << "count " << i;
    ASSERT_EQ(sharded.index_of(spread.code_at(i)),
              static_cast<std::int64_t>(i));
  }
  std::remove(sharded_path.c_str());
}

TEST(SpectrumIndex, RejectsMissingAndTruncatedFiles) {
  EXPECT_EQ(load_failure_kind(temp_path("does_not_exist")), Kind::kIo);

  const auto built = random_spectrum(16, 1000, 3);
  const std::string path = temp_path("truncated");
  index::write_spectrum_index(path, built, build_info_for(built));
  const std::string valid = slurp(path);

  // Shorter than the fixed header: rejected before any field is read.
  spew(path, valid.substr(0, 64));
  EXPECT_EQ(load_failure_kind(path), Kind::kTruncated);
  // Metadata intact but payload cut short: the recorded file_bytes no
  // longer matches reality.
  spew(path, valid.substr(0, valid.size() - 128));
  EXPECT_EQ(load_failure_kind(path), Kind::kTruncated);
  // Empty file.
  spew(path, "");
  EXPECT_EQ(load_failure_kind(path), Kind::kTruncated);
  std::remove(path.c_str());
}

TEST(SpectrumIndex, RejectsBadMagicVersionSkewAndHeaderCorruption) {
  const auto built = random_spectrum(16, 1000, 4);
  const std::string path = temp_path("corrupt_header");
  index::write_spectrum_index(path, built, build_info_for(built));
  const std::string valid = slurp(path);

  std::string bad = valid;
  bad[0] ^= 0x40;  // magic
  spew(path, bad);
  EXPECT_EQ(load_failure_kind(path), Kind::kBadMagic);

  bad = valid;
  bad[8] = 0x7f;  // format_version (first field after the 8-byte magic)
  spew(path, bad);
  EXPECT_EQ(load_failure_kind(path), Kind::kVersionSkew);

  bad = valid;
  bad[100] ^= 0x01;  // inside the header's reserved tail
  spew(path, bad);
  EXPECT_EQ(load_failure_kind(path), Kind::kChecksum);

  spew(path, valid);
  EXPECT_NO_THROW((void)index::SpectrumIndex::load(path));
  std::remove(path.c_str());
}

TEST(SpectrumIndex, PayloadBitFlipCaughtByVerify) {
  const auto built = random_spectrum(16, 1000, 6);
  const std::string path = temp_path("corrupt_payload");
  index::write_spectrum_index(path, built, build_info_for(built));
  const std::string valid = slurp(path);
  const auto info = index::SpectrumIndex::read_info(path);
  ASSERT_FALSE(info.sections.empty());

  index::LoadOptions verify;
  verify.verify_checksums = true;
  verify.validate_payload = true;

  // A flipped bit inside each payload section escapes the structural
  // (header-only) checks but must never survive a verifying load.
  for (const auto& section : info.sections) {
    std::string bad = valid;
    bad[section.offset + section.bytes / 2] ^= 0x10;
    spew(path, bad);
    EXPECT_NO_THROW((void)index::SpectrumIndex::read_info(path));
    EXPECT_EQ(load_failure_kind(path, verify), Kind::kChecksum);
  }

  // Every bit flip across the header + section table is also caught.
  const std::size_t meta_bytes =
      sizeof(index::IndexHeader) +
      info.sections.size() * sizeof(index::SectionEntry);
  for (std::size_t off = 0; off < meta_bytes; ++off) {
    std::string bad = valid;
    bad[off] ^= 0x04;
    spew(path, bad);
    EXPECT_THROW((void)index::SpectrumIndex::load(path, verify),
                 index::IndexError)
        << "metadata flip at byte " << off << " was not detected";
  }

  spew(path, valid);
  EXPECT_NO_THROW((void)index::SpectrumIndex::load(path, verify));
  std::remove(path.c_str());
}

// --- Sharded (version-2) format ---------------------------------------

TEST(ShardedIndex, RoundTripMatchesMonolith) {
  const int k = 16;
  const auto built = spread_spectrum(k, 20000, 42);
  ASSERT_GT(built.size(), 10000u);
  const std::string path = temp_path("sharded_roundtrip");
  const std::uint64_t checksum = write_sharded(path, built, 3);
  EXPECT_NE(checksum, 0u);

  const auto info = index::SpectrumIndex::read_info(path);
  EXPECT_EQ(info.format_version, index::kFormatVersionSharded);
  EXPECT_EQ(info.shard_bits, 3u);
  EXPECT_GE(info.shard_count, 2u);
  ASSERT_EQ(info.shards.size(), info.shard_count);
  std::uint64_t distinct = 0, instances = 0;
  for (const auto& s : info.shards) {
    distinct += s.distinct;
    instances += s.total_instances;
  }
  EXPECT_EQ(distinct, built.size());
  EXPECT_EQ(instances, built.total_instances());

  for (const bool use_mmap : {true, false}) {
    index::LoadOptions options;
    options.use_mmap = use_mmap;
    options.verify_checksums = true;
    options.validate_payload = true;
    const auto loaded = index::SpectrumIndex::load(path, options);
    const auto& spec = loaded.spectrum();
    EXPECT_TRUE(spec.sharded());
    EXPECT_EQ(loaded.info().checksum, checksum);
    ASSERT_EQ(spec.size(), built.size()) << "mmap=" << use_mmap;
    EXPECT_EQ(spec.total_instances(), built.total_instances());
    for (std::size_t i = 0; i < built.size(); i += 37) {
      ASSERT_EQ(spec.code_at(i), built.code_at(i)) << i;
      ASSERT_EQ(spec.count_at(i), built.count_at(i)) << i;
    }
    util::Rng rng(31);
    const seq::KmerCode mask = (seq::KmerCode{1} << (2 * k)) - 1;
    for (int q = 0; q < 2000; ++q) {
      const seq::KmerCode code =
          (q % 2 == 0) ? built.code_at(rng.below(built.size()))
                       : (rng() & mask);
      ASSERT_EQ(spec.index_of(code), built.index_of(code));
      ASSERT_EQ(spec.count(code), built.count(code));
    }
  }
  std::remove(path.c_str());
}

TEST(ShardedIndex, MonolithicFilesStayVersion1) {
  const auto built = random_spectrum(16, 2000, 8);
  const std::string a = temp_path("v1_a");
  const std::string b = temp_path("v1_b");
  index::write_spectrum_index(a, built, build_info_for(built));
  index::write_spectrum_index(b, built, build_info_for(built));
  const auto info = index::SpectrumIndex::read_info(a);
  EXPECT_EQ(info.format_version, index::kFormatVersion);
  EXPECT_EQ(info.shard_count, 0u);
  EXPECT_EQ(info.shard_bits, 0u);
  EXPECT_TRUE(info.shards.empty());
  EXPECT_EQ(slurp(a), slurp(b)) << "version-1 writes must stay deterministic";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ShardedIndex, RejectsTruncationAndCorruption) {
  const auto built = spread_spectrum(14, 6000, 77);
  const std::string path = temp_path("sharded_corrupt");
  write_sharded(path, built, 2);
  const std::string valid = slurp(path);
  const auto info = index::SpectrumIndex::read_info(path);
  ASSERT_GE(info.shard_count, 2u);

  // Payload cut short: the recorded file size no longer matches.
  spew(path, valid.substr(0, valid.size() - 64));
  EXPECT_EQ(load_failure_kind(path), Kind::kTruncated);

  // A flipped bit in every per-shard payload section is caught by a
  // verifying load.
  index::LoadOptions verify;
  verify.verify_checksums = true;
  verify.validate_payload = true;
  for (const auto& section : info.sections) {
    if (section.id == index::SectionId::kShardTable) continue;
    std::string bad = valid;
    bad[section.offset + section.bytes / 2] ^= 0x20;
    spew(path, bad);
    EXPECT_EQ(load_failure_kind(path, verify), Kind::kChecksum);
  }

  // The shard table's own checksum is verified on every metadata read,
  // so a flipped shard row fails even a default (lazy) load.
  const auto table =
      std::find_if(info.sections.begin(), info.sections.end(),
                   [](const index::IndexInfo::Section& s) {
                     return s.id == index::SectionId::kShardTable;
                   });
  ASSERT_NE(table, info.sections.end());
  std::string bad = valid;
  bad[table->offset + 4] ^= 0x01;
  spew(path, bad);
  EXPECT_EQ(load_failure_kind(path), Kind::kChecksum);
  EXPECT_THROW((void)index::SpectrumIndex::read_info(path),
               index::IndexError);

  spew(path, valid);
  EXPECT_NO_THROW((void)index::SpectrumIndex::load(path, verify));
  std::remove(path.c_str());
}

TEST(KSpectrum, ValidateSortedCountsFindsEachViolation) {
  using kspec::KSpectrum;
  EXPECT_FALSE(KSpectrum::validate_sorted_counts({}, {}, 8).has_value());
  std::vector<seq::KmerCode> codes{3, 9, 20};
  std::vector<std::uint32_t> counts{1, 2, 3};
  EXPECT_FALSE(KSpectrum::validate_sorted_counts(codes, counts, 8).has_value());

  const std::vector<std::uint32_t> short_counts{1, 2};
  EXPECT_TRUE(
      KSpectrum::validate_sorted_counts(codes, short_counts, 8).has_value());

  const std::vector<seq::KmerCode> unsorted{9, 3, 20};
  EXPECT_TRUE(
      KSpectrum::validate_sorted_counts(unsorted, counts, 8).has_value());

  const std::vector<seq::KmerCode> duplicated{3, 3, 20};
  EXPECT_TRUE(
      KSpectrum::validate_sorted_counts(duplicated, counts, 8).has_value());

  const std::vector<std::uint32_t> zero_count{1, 0, 3};
  EXPECT_TRUE(
      KSpectrum::validate_sorted_counts(codes, zero_count, 8).has_value());

  // Code wider than 2k bits (k=2 -> 4-bit space, 20 needs 5).
  EXPECT_TRUE(
      KSpectrum::validate_sorted_counts(codes, counts, 2).has_value());
}

// --- Pipeline integration ---------------------------------------------

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

std::unique_ptr<core::Corrector> make_method(const std::string& name) {
  core::CorrectorConfig config;
  config.genome_length = 20000;
  config.error_rate = 0.01;
  return core::make_corrector(name, config);
}

TEST(CorrectionPipeline, LoadIndexReproducesFreshRunByteForByte) {
  const auto run = make_run(20260806);
  const std::string fastq = to_fastq(run.reads);
  const std::string index_path = temp_path("pipeline_index");

  // redeem sizes its matrices from the InputSummary, so identical output
  // additionally proves the summary persisted in the index header.
  for (const std::string method : {"sap", "redeem"}) {
    core::PipelineOptions plain_opts;
    std::ostringstream plain_out;
    core::CorrectionPipeline plain(make_method(method), plain_opts);
    const auto plain_result = plain.run(factory_for(fastq), plain_out);
    EXPECT_TRUE(plain_result.streamed);
    EXPECT_FALSE(plain_result.pass1_skipped);
    EXPECT_EQ(plain_result.report.extra("index_saved"), 0u);

    core::PipelineOptions save_opts;
    save_opts.save_index_path = index_path;
    std::ostringstream save_out;
    core::CorrectionPipeline saver(make_method(method), save_opts);
    const auto save_result = saver.run(factory_for(fastq), save_out);
    EXPECT_FALSE(save_result.pass1_skipped);
    EXPECT_EQ(save_result.report.extra("index_saved"), 1u);
    EXPECT_EQ(save_result.report.note_or("index_path"), index_path);
    EXPECT_FALSE(save_result.report.note_or("index_checksum").empty());

    core::PipelineOptions load_opts;
    load_opts.load_index_path = index_path;
    std::ostringstream load_out;
    core::CorrectionPipeline loader(make_method(method), load_opts);
    const auto load_result = loader.run(factory_for(fastq), load_out);
    EXPECT_TRUE(load_result.pass1_skipped);
    EXPECT_EQ(load_result.report.extra("pass1_skipped"), 1u);
    EXPECT_EQ(load_result.report.note_or("index_path"), index_path);
    EXPECT_EQ(load_result.report.note_or("index_checksum"),
              save_result.report.note_or("index_checksum"));
    // The loaded run never saw the reads in pass 1; the summary must
    // come from the index header and match the fresh run exactly.
    EXPECT_EQ(load_result.input.reads, plain_result.input.reads);
    EXPECT_EQ(load_result.input.bases, plain_result.input.bases);
    EXPECT_EQ(load_result.input.max_read_length,
              plain_result.input.max_read_length);

    EXPECT_EQ(save_out.str(), plain_out.str()) << method;
    EXPECT_EQ(load_out.str(), plain_out.str()) << method;
    std::remove(index_path.c_str());
  }
}

TEST(CorrectionPipeline, LoadIndexRejectsParameterMismatch) {
  const auto run = make_run(77, 10.0);
  const std::string fastq = to_fastq(run.reads);

  auto sap = make_method("sap");
  const int needed_k = sap->spectrum_k();
  ASSERT_GT(needed_k, 0);

  // An index built at a different k: cross-check must fail fast.
  const auto wrong = kspec::KSpectrum::build(run.reads, needed_k + 1, true);
  index::IndexBuildInfo build;
  build.k = needed_k + 1;
  build.both_strands = true;
  const std::string path = temp_path("mismatch_k");
  index::write_spectrum_index(path, wrong, build);

  core::PipelineOptions opts;
  opts.load_index_path = path;
  core::CorrectionPipeline pipeline(std::move(sap), opts);
  std::ostringstream out;
  EXPECT_THROW(pipeline.run(factory_for(fastq), out), std::invalid_argument);

  // Same k, opposite strand convention.
  const auto same_k = kspec::KSpectrum::build(run.reads, needed_k, true);
  build.k = needed_k;
  build.both_strands = false;
  index::write_spectrum_index(path, same_k, build);
  core::CorrectionPipeline pipeline2(make_method("sap"), opts);
  EXPECT_THROW(pipeline2.run(factory_for(fastq), out), std::invalid_argument);
  std::remove(path.c_str());
}

// The ISSUE acceptance criterion: on input whose spectrum exceeds the
// budget, a budget-constrained run completes with the builder's own
// peak accounting under the budget and output byte-identical to the
// unconstrained run — for every registered method.
TEST(CorrectionPipeline, BudgetRunMatchesUnconstrainedForEveryMethod) {
  const auto run = make_run(20260808, 12.0);
  const std::string fastq = to_fastq(run.reads);
  constexpr std::size_t kBudget = 400000;

  for (const auto& info : core::registered_methods()) {
    std::ostringstream plain_out;
    core::CorrectionPipeline plain(make_method(info.name), {});
    const auto plain_result = plain.run(factory_for(fastq), plain_out);

    core::PipelineOptions budget_opts;
    budget_opts.memory_budget_bytes = kBudget;
    budget_opts.spill_dir = testing::TempDir();
    std::ostringstream budget_out;
    core::CorrectionPipeline budgeted(make_method(info.name), budget_opts);
    const auto budget_result = budgeted.run(factory_for(fastq), budget_out);

    EXPECT_EQ(budget_out.str(), plain_out.str()) << info.name;
    EXPECT_EQ(budget_result.report.reads, plain_result.report.reads)
        << info.name;
    if (info.streaming) {
      EXPECT_TRUE(budget_result.spectrum_spilled) << info.name;
      EXPECT_GE(budget_result.spectrum_shards, 2u) << info.name;
      EXPECT_GT(budget_result.spectrum_spilled_bytes, 0u) << info.name;
      EXPECT_GT(budget_result.spectrum_peak_tracked_bytes, 0u) << info.name;
      EXPECT_LE(budget_result.spectrum_peak_tracked_bytes, kBudget)
          << info.name << ": builder accounting exceeded the budget";
      EXPECT_EQ(budget_result.report.extra("spectrum_spilled"), 1u);
    } else {
      // Buffered methods never build a streamed spectrum; the budget is
      // inert and the report stays free of spill extras.
      EXPECT_FALSE(budget_result.spectrum_spilled) << info.name;
      EXPECT_EQ(budget_result.report.extra("spectrum_spilled"), 0u);
    }
  }
}

TEST(CorrectionPipeline, BudgetIdentityAcrossThreadsAndBudgets) {
  const auto run = make_run(424242, 12.0);
  const std::string fastq = to_fastq(run.reads);

  std::ostringstream reference_out;
  core::CorrectionPipeline reference(make_method("sap"), {});
  (void)reference.run(factory_for(fastq), reference_out);

  for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    for (const std::size_t budget :
         {std::size_t{300000}, std::size_t{450000}, std::size_t{900000}}) {
      core::PipelineOptions opts;
      opts.threads = threads;
      opts.batch_size = 512;
      opts.memory_budget_bytes = budget;
      opts.spill_dir = testing::TempDir();
      std::ostringstream out;
      core::CorrectionPipeline pipeline(make_method("sap"), opts);
      const auto result = pipeline.run(factory_for(fastq), out);
      EXPECT_TRUE(result.spectrum_spilled)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_LE(result.spectrum_peak_tracked_bytes, budget)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_EQ(out.str(), reference_out.str())
          << "threads=" << threads << " budget=" << budget;
    }
  }
}

TEST(CorrectionPipeline, BudgetSaveIndexIsShardedAndReloadable) {
  const auto run = make_run(99, 12.0);
  const std::string fastq = to_fastq(run.reads);
  const std::string path = temp_path("budget_saved");

  std::ostringstream plain_out;
  core::CorrectionPipeline plain(make_method("sap"), {});
  (void)plain.run(factory_for(fastq), plain_out);

  core::PipelineOptions save_opts;
  save_opts.memory_budget_bytes = 400000;
  save_opts.spill_dir = testing::TempDir();
  save_opts.save_index_path = path;
  std::ostringstream save_out;
  core::CorrectionPipeline saver(make_method("sap"), save_opts);
  const auto save_result = saver.run(factory_for(fastq), save_out);
  EXPECT_TRUE(save_result.spectrum_spilled);
  EXPECT_EQ(save_result.report.extra("index_saved"), 1u);
  EXPECT_EQ(save_out.str(), plain_out.str());

  const auto info = index::SpectrumIndex::read_info(path);
  EXPECT_EQ(info.format_version, index::kFormatVersionSharded);
  EXPECT_EQ(info.shard_count, save_result.spectrum_shards);

  // A later --load-index run over the sharded file reproduces the
  // fresh run byte for byte, serving pass 2 from lazily mapped shards.
  core::PipelineOptions load_opts;
  load_opts.load_index_path = path;
  std::ostringstream load_out;
  core::CorrectionPipeline loader(make_method("sap"), load_opts);
  const auto load_result = loader.run(factory_for(fastq), load_out);
  EXPECT_TRUE(load_result.pass1_skipped);
  EXPECT_EQ(load_out.str(), plain_out.str());
  std::remove(path.c_str());
}

TEST(CorrectionPipeline, BufferedMethodsRejectIndexFlags) {
  const auto run = make_run(55, 10.0);
  const std::string fastq = to_fastq(run.reads);
  const std::string path = temp_path("buffered_reject");

  core::PipelineOptions load_opts;
  load_opts.load_index_path = path;
  core::CorrectionPipeline loading(make_method("reptile"), load_opts);
  std::ostringstream out;
  EXPECT_THROW(loading.run(factory_for(fastq), out), std::invalid_argument);

  core::PipelineOptions save_opts;
  save_opts.save_index_path = path;
  core::CorrectionPipeline saving(make_method("reptile"), save_opts);
  EXPECT_THROW(saving.run(factory_for(fastq), out), std::invalid_argument);
}

}  // namespace
