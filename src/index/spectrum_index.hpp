#pragma once
// ngs::index — the persistent, mmap-able k-spectrum index subsystem.
//
// Pass 1 of the correction pipeline (Sec. 2.1 k-spectrum construction)
// is a pure function of the read set, yet the seed recomputed it on
// every invocation. For a serving system running repeated correction
// jobs against the same reads, the spectrum is a static artifact:
// RECKONER builds its k-mer database out-of-band with KMC and loads it
// per run, and BFC treats the k-mer structure as an independently built,
// reusable index. This module gives the repository the same decoupling:
//
//   ShardedIndexWriter — the one writer: streams disjoint ascending
//       (code, count) runs, e.g. the prefix bins of
//       ChunkedSpectrumBuilder::finish_spilled, into the versioned
//       binary format of format.hpp, so the full spectrum never exists
//       in memory on the write side; the file appears atomically
//       (util::AtomicFile: write to tmp + fsync + rename), so readers
//       never observe a torn file;
//   write_spectrum_index — the one-run call of that writer for a
//       KSpectrum already in memory, so a spilled build and an
//       in-memory one write the same bytes for the same spectrum;
//   SpectrumIndex::load — maps the file once and serves a zero-copy
//       KSpectrum view straight out of the mapped pages (no
//       deserialization: the code/count/bucket arrays are spans over
//       the mapping, 64-byte aligned by construction), falling back to
//       an owned read() buffer when mmap is unavailable or fails.
//       Pages the queries never touch are never read.
//
// Loaded views share ownership of the mapping through the spectrum's
// keepalive handle, so a KSpectrum obtained here can be moved into a
// corrector and outlive the SpectrumIndex object itself.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/format.hpp"
#include "kspec/kspectrum.hpp"
#include "util/error.hpp"

namespace ngs::index {

/// Loader/verifier failure with a machine-checkable kind. Every kind
/// maps to a distinct, actionable message (which file, what was
/// expected, what was found) — a short mmap is rejected up front, never
/// dereferenced. Derives from ngs::Error with ErrorKind::kIndex, so the
/// tools map any index failure to exit code 4 through the shared
/// taxonomy while callers that care can still switch on the fine-
/// grained corruption mode.
class IndexError : public ngs::Error {
 public:
  enum class Kind {
    kIo,             // open/stat/read/write/rename failure
    kBadMagic,       // not a spectrum index file
    kVersionSkew,    // format_version this reader does not understand
    kEndianMismatch, // written on a foreign-endian host
    kTruncated,      // file shorter than the metadata claims
    kBadLayout,      // internally inconsistent metadata (bad sizes,
                     // overlapping/unaligned sections, missing section)
    kChecksum,       // header/section checksum mismatch
    kInvalidPayload, // payload violates the spectrum invariants
  };

  IndexError(Kind kind, const std::string& what)
      : ngs::Error(ngs::ErrorKind::kIndex, "index", what), kind_(kind) {}

  /// The corruption mode; named index_kind() so the taxonomy-level
  /// ngs::Error::kind() stays visible on this type.
  Kind index_kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Build provenance persisted in the header: the spectrum parameters
/// plus the InputSummary of the read set it was built from, so a
/// --load-index run reproduces a fresh run's input accounting without
/// re-streaming pass 1.
struct IndexBuildInfo {
  int k = 0;
  bool both_strands = true;
  std::uint64_t input_reads = 0;
  std::uint64_t input_bases = 0;
  std::uint32_t max_read_length = 0;
};

/// Parsed metadata of an index file (everything `ngs-index info` shows).
struct IndexInfo {
  std::uint32_t format_version = 0;
  IndexBuildInfo build;
  std::uint64_t distinct = 0;
  std::uint64_t total_instances = 0;
  int prefix_bits = 0;
  std::uint64_t file_bytes = 0;
  /// Header+section-table checksum — changes whenever any payload
  /// changes (section checksums are part of the covered bytes), so it
  /// serves as the whole-file fingerprint surfaced as `index_checksum`.
  std::uint64_t checksum = 0;

  /// Always 0: version-1 files are one flat spectrum. Kept so existing
  /// readers of the field still compile.
  std::uint32_t shard_count = 0;

  struct Section {
    SectionId id;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Section> sections;

  /// True when the payload is served from an mmap (zero-copy), false on
  /// the owned-buffer fallback path.
  bool mapped = false;
};

/// Writes `spectrum` to `path` atomically as a one-run
/// ShardedIndexWriter: the bytes go to a sibling temp file, fsync'ed,
/// then renamed over `path` (and the directory entry flushed), so a
/// concurrent or crashed writer can never leave a torn index behind.
/// `build.k`/`build.both_strands` must describe the spectrum ("k" is
/// cross-checked). Throws IndexError on any I/O failure. Returns the
/// file's checksum fingerprint.
std::uint64_t write_spectrum_index(const std::string& path,
                                   const kspec::KSpectrum& spectrum,
                                   const IndexBuildInfo& build);

/// Streaming index writer. Runs — disjoint ascending (code, count)
/// slices of one spectrum, e.g. the prefix bins of
/// ChunkedSpectrumBuilder::finish_spilled — are appended in key order;
/// each run's codes go straight into the codes section and its counts
/// into a sidecar temp file beside the index's own temp file, so the
/// write side holds no array sized by the spectrum except the bucket
/// table finish() builds. The file is the version-1 layout, byte for
/// byte what one run of the whole spectrum writes. It is built in a
/// util::AtomicFile temp and renamed into place by finish(); dropping
/// the writer without finish() removes both temps. Throws IndexError on
/// any failure.
class ShardedIndexWriter {
 public:
  /// The runs to come: `shard_count` of them, run p holding only codes
  /// whose top `shard_bits` bits equal its prefix (shard_bits 0 = one
  /// run of the whole key space). The split is not part of the file.
  ShardedIndexWriter(const std::string& path, const IndexBuildInfo& build,
                     int shard_bits, std::size_t shard_count);
  ~ShardedIndexWriter();
  ShardedIndexWriter(const ShardedIndexWriter&) = delete;
  ShardedIndexWriter& operator=(const ShardedIndexWriter&) = delete;

  /// Appends one run: `codes` strictly ascending, all with top
  /// shard_bits equal to `prefix`, prefixes strictly ascending across
  /// calls; `counts` parallel and positive. An empty run writes nothing.
  void append_shard(std::uint32_t prefix,
                    std::span<const seq::KmerCode> codes,
                    std::span<const std::uint32_t> counts);

  /// Seals the file: appends the counts, builds the bucket table at
  /// the auto width of the final distinct count from the written codes,
  /// writes the header and section table, then atomically renames into
  /// place. Returns the file's checksum fingerprint. Must follow exactly
  /// shard_count append_shard calls.
  std::uint64_t finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct LoadOptions {
  /// Recompute every section checksum against the stored values. Off by
  /// default: it touches every payload page, which defeats the lazy
  /// page-fault load the subsystem exists for. Structural validation
  /// (magic, version, endianness, bounds, header checksum) always runs.
  bool verify_checksums = false;
  /// Additionally run KSpectrum::validate_sorted_counts over the
  /// payload and cross-check total_instances (`ngs-index verify`).
  bool validate_payload = false;
};

class SpectrumIndex {
 public:
  /// Opens, validates, and maps `path`, or reads it into an owned
  /// buffer when mmap fails. Throws IndexError with a distinct
  /// kind/message for every corruption mode; on return the spectrum view
  /// is ready.
  static SpectrumIndex load(const std::string& path,
                            const LoadOptions& options = {});

  /// Parses and validates only the metadata (header + section table) —
  /// the cheap path behind `ngs-index info`.
  static IndexInfo read_info(const std::string& path);

  const IndexInfo& info() const noexcept { return info_; }
  const std::string& path() const noexcept { return path_; }

  /// The zero-copy spectrum view. Valid for the lifetime of this object.
  const kspec::KSpectrum& spectrum() const noexcept { return spectrum_; }

  /// A self-contained copy of the view: shares the mapping via the
  /// spectrum keepalive, so it remains valid after this SpectrumIndex
  /// is destroyed (the mapping is released when the last view goes).
  kspec::KSpectrum share_spectrum() const { return spectrum_; }

 private:
  SpectrumIndex() = default;

  std::string path_;
  IndexInfo info_;
  kspec::KSpectrum spectrum_;
};

}  // namespace ngs::index
