#pragma once
// The k-spectrum R^k of a read set (Sec. 2.1): the sorted multiset of all
// kmers occurring in the reads (optionally including reverse-complement
// strands, as Reptile requires for double-strandedness). Stored as a
// sorted code array with parallel counts, so membership and count lookups
// are binary searches and the structure is directly usable as the base
// array of the masked-sort neighborhood index.
//
// Reads are counted by one counter, kspec::ChunkedSpectrumBuilder, which
// counts streamed batches on its workers' lanes with the radix kernel
// (kspec/radix.hpp) and merges each batch's counts into the earlier ones
// (Sec. 2.3); the arrays are the same for every batch size, worker count
// and pool size. A bucket-offset table over the codes' top bits (the
// prefix index) narrows index_of to a within-bucket binary search over
// a few cache lines instead of log2(|R^k|) scattered probes — HiTEC,
// REDEEM, Reptile, eval::kmer_classification, assembly::debruijn and
// the tile table (whose tiles and Oc counts are a KSpectrum at k = tile
// length) inherit the speedup. SAP, which only asks whether a count
// reaches its threshold, copies its solid codes into a util::FlatSet
// and keeps no spectrum.
//
// Storage is view-based: the code/count/bucket arrays are accessed
// through spans that normally point into vectors the spectrum owns, but
// can instead be bound to externally owned memory via adopt_external —
// the zero-copy path index::SpectrumIndex uses to serve a spectrum
// straight out of mmap'ed pages. An optional keepalive handle travels
// with the spectrum (through moves and copies) so the backing mapping
// outlives every accessor.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "seq/kmer.hpp"
#include "seq/read.hpp"

namespace ngs::kspec {

class KSpectrum {
 public:
  KSpectrum() = default;
  // Copy and move preserve the storage mode: owned spectra deep-copy
  // their vectors; external views, which own no array, copy cheaply
  // (spans + shared keepalive).
  KSpectrum(const KSpectrum& other);
  KSpectrum& operator=(const KSpectrum& other);
  KSpectrum(KSpectrum&& other) noexcept;
  KSpectrum& operator=(KSpectrum&& other) noexcept;
  ~KSpectrum() = default;

  /// Builds the k-spectrum of `reads`: one ChunkedSpectrumBuilder run fed
  /// by blocks of the set on as many workers as the shared default pool
  /// has threads. If both_strands, every read's reverse complement
  /// contributes as well. Windows with ambiguous bases are skipped
  /// (callers convert N's beforehand if desired).
  static KSpectrum build(const seq::ReadSet& reads, int k,
                         bool both_strands = true);

  /// Builds from a single long sequence (e.g. the reference genome, for
  /// ground-truth kmer classification), as one read on one builder lane.
  static KSpectrum build_from_sequence(std::string_view sequence, int k,
                                       bool both_strands = false);

  /// Builds from an explicit code multiset (codes within 2k bits).
  static KSpectrum from_codes(std::vector<seq::KmerCode> codes, int k);

  /// Builds from pre-aggregated sorted (code, count) arrays (used by the
  /// bounded-memory ChunkedSpectrumBuilder), with a prefix index of
  /// auto_prefix_bits width. Precondition: codes are
  /// strictly ascending and in 2k-bit range, counts parallel and
  /// positive. A size mismatch always throws std::invalid_argument; the
  /// O(n) precondition scan runs only in debug builds (NDEBUG off) —
  /// release callers on the hot path are trusted, and out-of-band
  /// sources (the index loader's verify path) check explicitly through
  /// validate_sorted_counts().
  static KSpectrum from_sorted_counts(std::vector<seq::KmerCode> codes,
                                      std::vector<std::uint32_t> counts,
                                      int k);

  /// Checks the from_sorted_counts precondition over arbitrary arrays:
  /// equal lengths, strictly ascending codes, every code within 2k bits,
  /// every count positive. Returns a human-readable description of the
  /// first violation, or nullopt when the arrays are a valid spectrum.
  /// index::SpectrumIndex runs this over the mapped payload on `verify`.
  static std::optional<std::string> validate_sorted_counts(
      std::span<const seq::KmerCode> codes,
      std::span<const std::uint32_t> counts, int k);

  /// Zero-copy view over externally owned arrays (an mmap'ed
  /// index::SpectrumIndex payload, an arena, ...). `bucket_starts` is
  /// the prefix-bucket offset table for `prefix_bits` (pass empty + 0 to
  /// run without one).
  /// `total` is the instance count (sum of counts). `keepalive` is
  /// retained for the lifetime of the spectrum and every copy of it, so
  /// the backing memory cannot be unmapped while reachable. The caller
  /// is responsible for the arrays actually satisfying the
  /// from_sorted_counts precondition (see validate_sorted_counts).
  static KSpectrum adopt_external(std::span<const seq::KmerCode> codes,
                                  std::span<const std::uint32_t> counts,
                                  std::span<const std::uint64_t> bucket_starts,
                                  int k, std::uint64_t total, int prefix_bits,
                                  std::shared_ptr<const void> keepalive = {});

  /// True when the code/count arrays live in memory this spectrum does
  /// not own (adopt_external).
  bool external() const noexcept { return external_; }

  /// The prefix-bucket width of a spectrum of `size` codes: ~32 codes
  /// per bucket, 0 below 64 codes, capped so the offset table stays a
  /// few MB and never exceeds the key width. from_sorted_counts indexes
  /// at this width, and index::ShardedIndexWriter writes its table at it.
  static int auto_prefix_bits(std::size_t size, int k) noexcept;

  int k() const noexcept { return k_; }
  std::size_t size() const noexcept { return codes_.size(); }
  bool empty() const noexcept { return size() == 0; }

  /// Total kmer instances (sum of counts).
  std::uint64_t total_instances() const noexcept { return total_; }

  bool contains(seq::KmerCode code) const { return index_of(code) >= 0; }

  /// Multiplicity of `code` in the spectrum (0 if absent).
  std::uint32_t count(seq::KmerCode code) const {
    const auto i = index_of(code);
    return i < 0 ? 0 : counts_[static_cast<std::size_t>(i)];
  }

  /// Index of `code` in the sorted array, or -1. Uses the prefix-bucket
  /// table when present; exact either way.
  std::int64_t index_of(seq::KmerCode code) const;

  /// Batched index_of: out[i] = index_of(probes[i]) for every i, with
  /// results bit-identical to the single-probe path. Groups of probes
  /// advance their binary-search descents in lockstep with software
  /// prefetch (util::interleaved_lower_bound), so the cache misses of
  /// independent probes pipeline instead of serializing.
  /// Precondition: probes.size() == out.size().
  void index_of_batch(std::span<const seq::KmerCode> probes,
                      std::span<std::int64_t> out) const;

  /// Batched global lower bound: out[i] is the index of the first code
  /// >= keys[i], or size() when every code is smaller (keys wider than
  /// 2k bits included) — bit-identical to std::lower_bound over codes().
  /// Each key's descent is narrowed to its prefix bucket, and groups of
  /// descents run interleaved (util::interleaved_lower_bound). The one
  /// descent behind index_of_batch and TileTable::og_cross.
  /// Precondition: keys.size() == out.size().
  void lower_bound_batch(std::span<const seq::KmerCode> keys,
                         std::span<std::size_t> out) const;

  /// Width of the active prefix index (0 = disabled).
  int prefix_index_bits() const noexcept { return prefix_bits_; }

  seq::KmerCode code_at(std::size_t i) const { return codes_[i]; }
  std::uint32_t count_at(std::size_t i) const { return counts_[i]; }

  std::span<const seq::KmerCode> codes() const noexcept { return codes_; }
  std::span<const std::uint32_t> counts() const noexcept { return counts_; }

  /// The prefix-bucket offset table (2^prefix_index_bits + 1 entries;
  /// empty when the index is disabled). Index files store the table at
  /// auto_prefix_bits width, so a loaded spectrum looks up at full speed
  /// without a rebuild pass.
  std::span<const std::uint64_t> bucket_starts() const noexcept {
    return bucket_starts_;
  }

 private:
  /// Builds the owned prefix-bucket lookup table at auto_prefix_bits
  /// width: 2^bits offsets into the sorted array, one per top-bits key
  /// prefix. Purely an accessor structure — never changes lookup
  /// results.
  void build_prefix_index();
  /// Points the views at the owned vectors, or, on an external view, at
  /// the memory that `source`'s views share.
  void bind_views(const KSpectrum& source) noexcept;
  void move_from(KSpectrum&& other) noexcept;

  int k_ = 0;
  std::uint64_t total_ = 0;
  bool external_ = false;  // codes_/counts_ view memory we do not own
  // Owned storage; empty on the external path.
  std::vector<seq::KmerCode> codes_vec_;
  std::vector<std::uint32_t> counts_vec_;
  std::vector<std::uint64_t> bucket_starts_vec_;
  // Active views: into the owned vectors or into external memory.
  std::span<const seq::KmerCode> codes_;     // sorted ascending, unique
  std::span<const std::uint32_t> counts_;    // parallel multiplicities
  std::span<const std::uint64_t> bucket_starts_;  // 2^prefix_bits_ + 1
  int prefix_bits_ = 0;  // 0 = no prefix index
  std::shared_ptr<const void> keepalive_;  // owner of external memory
};

}  // namespace ngs::kspec
