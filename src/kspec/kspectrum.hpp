#pragma once
// The k-spectrum R^k of a read set (Sec. 2.1): the sorted multiset of all
// kmers occurring in the reads (optionally including reverse-complement
// strands, as Reptile requires for double-strandedness). Stored as a
// sorted code array with parallel counts, so membership and count lookups
// are binary searches and the structure is directly usable as the base
// array of the masked-sort neighborhood index.
//
// Construction is radix-partitioned and parallel (see kspec/radix.hpp):
// instances are sharded by their top prefix bits, buckets sort
// concurrently, and the concatenation is byte-identical to the serial
// sort for every thread count. The same prefix sharding is kept at query
// time as a bucket-offset table, so index_of narrows to a within-bucket
// binary search over a few cache lines instead of log2(|R^k|) scattered
// probes — every corrector, eval::kmer_classification, and
// assembly::debruijn inherit the speedup through contains()/count().
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

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

/// Controls for the parallel spectrum build and the lookup index.
struct SpectrumBuildOptions {
  /// 1 = the serial seed path (single std::sort in the calling thread,
  /// kept as the benchmark baseline); 0 = the shared default pool; any
  /// other value = a dedicated pool of that many workers for this build.
  std::size_t threads = 0;
  /// Radix partition width for construction (2^bits buckets); -1 = auto
  /// from input size, 0 = a single bucket (plain sort).
  int radix_bits = -1;
  /// Prefix-bucket lookup index width; -1 = auto from spectrum size,
  /// 0 = disable (index_of falls back to a full-range binary search).
  int prefix_index_bits = -1;
  /// Pool override for construction; supersedes `threads` unless
  /// threads == 1 (serial stays serial).
  util::ThreadPool* pool = nullptr;
};

class KSpectrum {
 public:
  KSpectrum() = default;
  // Copy and move preserve the storage mode: owned spectra deep-copy
  // their vectors; external views copy cheaply (span + shared keepalive).
  KSpectrum(const KSpectrum& other);
  KSpectrum& operator=(const KSpectrum& other);
  KSpectrum(KSpectrum&& other) noexcept;
  KSpectrum& operator=(KSpectrum&& other) noexcept;
  ~KSpectrum() = default;

  /// Builds the k-spectrum of `reads`. If both_strands, every read's
  /// reverse complement contributes as well. Windows with ambiguous
  /// bases are skipped (callers convert N's beforehand if desired).
  static KSpectrum build(const seq::ReadSet& reads, int k,
                         bool both_strands = true,
                         const SpectrumBuildOptions& options = {});

  /// Builds from a single long sequence (e.g. the reference genome, for
  /// ground-truth kmer classification).
  static KSpectrum build_from_sequence(std::string_view sequence, int k,
                                       bool both_strands = false,
                                       const SpectrumBuildOptions& options = {});

  /// Builds from an explicit code multiset.
  static KSpectrum from_codes(std::vector<seq::KmerCode> codes, int k,
                              const SpectrumBuildOptions& options = {});

  /// Builds from pre-aggregated sorted (code, count) arrays (used by the
  /// bounded-memory ChunkedSpectrumBuilder). Precondition: codes are
  /// strictly ascending and in 2k-bit range, counts parallel and
  /// positive. A size mismatch always throws std::invalid_argument; the
  /// O(n) precondition scan runs only in debug builds (NDEBUG off) —
  /// release callers on the hot path are trusted, and out-of-band
  /// sources (the index loader's verify path) check explicitly through
  /// validate_sorted_counts().
  static KSpectrum from_sorted_counts(std::vector<seq::KmerCode> codes,
                                      std::vector<std::uint32_t> counts,
                                      int k, int prefix_index_bits = -1);

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
  /// run without one; rebuild_prefix_index can add an owned one later).
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

  /// Sharded spectrum: one facade over 2^shard_bits per-prefix spectra
  /// (what index::SpectrumIndex::load returns for a sharded file, each
  /// shard a view into the one mapping of the file). `shards[p]` holds
  /// every code whose top shard_bits bits equal p and is empty for an
  /// empty bin. Global indices run over the shards in prefix order, so
  /// code_at/count_at and index_of behave exactly as on the monolithic
  /// spectrum; the total is the sum of the shards'. Copies share the
  /// shards. codes()/counts()/bucket_starts() return empty spans in this
  /// mode (there is no single contiguous array).
  static KSpectrum from_shards(std::vector<KSpectrum> shards, int shard_bits,
                               int k);

  /// True when the code/count arrays live in memory this spectrum does
  /// not own (adopt_external).
  bool external() const noexcept { return external_; }

  /// True when lookups route through per-prefix shards (from_shards).
  bool sharded() const noexcept { return shard_bits_ > 0; }

  /// Prefix width of the shard routing (0 = not sharded).
  int shard_bits() const noexcept { return shard_bits_; }

  int k() const noexcept { return k_; }
  std::size_t size() const noexcept {
    return shard_bits_ > 0 ? static_cast<std::size_t>(shard_starts_.back())
                           : codes_.size();
  }
  bool empty() const noexcept { return size() == 0; }

  /// Total kmer instances (sum of counts).
  std::uint64_t total_instances() const noexcept { return total_; }

  bool contains(seq::KmerCode code) const { return index_of(code) >= 0; }

  /// Multiplicity of `code` in the spectrum (0 if absent).
  std::uint32_t count(seq::KmerCode code) const {
    if (shard_bits_ > 0) return sharded_count(code);
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
  /// On a sharded spectrum, probes are grouped per shard prefix first and
  /// each touched shard answers its group through its own batch path.
  /// Precondition: probes.size() == out.size().
  void index_of_batch(std::span<const seq::KmerCode> probes,
                      std::span<std::int64_t> out) const;

  /// (Re)builds the prefix-bucket lookup table: 2^bits offsets into the
  /// sorted array, one per top-bits key prefix. -1 = auto width from the
  /// spectrum size, 0 = drop the index. Purely an accessor structure —
  /// never changes lookup results. Valid on external spectra too (the
  /// rebuilt table is owned; the code/count views are untouched).
  void rebuild_prefix_index(int prefix_index_bits = -1);

  /// Width of the active prefix index (0 = disabled).
  int prefix_index_bits() const noexcept { return prefix_bits_; }

  /// Bytes held by the prefix-bucket offset table.
  std::size_t prefix_index_bytes() const noexcept {
    return bucket_starts_.size() * sizeof(std::uint64_t);
  }

  seq::KmerCode code_at(std::size_t i) const {
    return shard_bits_ > 0 ? sharded_code_at(i) : codes_[i];
  }
  std::uint32_t count_at(std::size_t i) const {
    return shard_bits_ > 0 ? sharded_count_at(i) : counts_[i];
  }

  /// Empty on a sharded spectrum (no single contiguous array exists).
  std::span<const seq::KmerCode> codes() const noexcept { return codes_; }
  std::span<const std::uint32_t> counts() const noexcept { return counts_; }

  /// The prefix-bucket offset table (2^prefix_index_bits + 1 entries;
  /// empty when the index is disabled or the spectrum is sharded).
  /// index::write_spectrum_index persists it so a loaded spectrum looks
  /// up at full speed without a rebuild pass.
  std::span<const std::uint64_t> bucket_starts() const noexcept {
    return bucket_starts_;
  }

 private:
  static KSpectrum from_instances(std::vector<seq::KmerCode> instances, int k,
                                  const SpectrumBuildOptions& options);

  /// Points the code/count views at the owned vectors (after they were
  /// filled or moved).
  void rebind_owned() noexcept;
  void move_from(KSpectrum&& other) noexcept;

  // Out-of-line sharded lookup paths (kspectrum.cpp).
  std::int64_t sharded_index_of(seq::KmerCode code) const;
  void sharded_index_of_batch(std::span<const seq::KmerCode> probes,
                              std::span<std::int64_t> out) const;
  std::uint32_t sharded_count(seq::KmerCode code) const;
  seq::KmerCode sharded_code_at(std::size_t i) const;
  std::uint32_t sharded_count_at(std::size_t i) const;
  /// Maps a global index to (shard prefix, local index within shard).
  std::pair<std::uint32_t, std::size_t> locate(std::size_t i) const;

  int k_ = 0;
  std::uint64_t total_ = 0;
  bool external_ = false;  // codes_/counts_ view memory we do not own
  // Owned storage; empty on the external path (bucket_starts_vec_ may
  // still be populated by rebuild_prefix_index on an external spectrum).
  std::vector<seq::KmerCode> codes_vec_;
  std::vector<std::uint32_t> counts_vec_;
  std::vector<std::uint64_t> bucket_starts_vec_;
  // Active views: into the owned vectors or into external memory.
  std::span<const seq::KmerCode> codes_;     // sorted ascending, unique
  std::span<const std::uint32_t> counts_;    // parallel multiplicities
  std::span<const std::uint64_t> bucket_starts_;  // 2^prefix_bits_ + 1
  int prefix_bits_ = 0;  // 0 = no prefix index
  std::shared_ptr<const void> keepalive_;  // owner of external memory
  // Sharded mode (from_shards): lookups route by code >> (2k −
  // shard_bits_) into `shards_` (indexed by prefix, shared between
  // copies); `shard_starts_` (2^shard_bits_+1 cumulative distinct
  // offsets) converts between global and per-shard indices.
  // shard_bits_ == 0 means not sharded.
  std::shared_ptr<const std::vector<KSpectrum>> shards_;
  std::vector<std::uint64_t> shard_starts_;
  int shard_bits_ = 0;
};

}  // namespace ngs::kspec
