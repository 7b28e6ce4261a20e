#pragma once
// Parallel radix counting of packed kmer codes — the one construction
// kernel behind ChunkedSpectrumBuilder, TileTable and
// KSpectrum::from_codes.
//
// Codes are sharded by their top `radix_bits` bits (the 5'-most bases,
// since the codec stores the first base in the most significant pair)
// into 2^radix_bits buckets with a two-pass stable counting partition.
// Each bucket is then sorted on a util::ThreadPool by LSD counting
// passes of at most 8 bits over the key bits below the prefix,
// ping-ponging between the partition target and the input array, so
// the kernel never holds more than two arrays of n codes. Because the
// buckets cover disjoint, ascending key ranges, their concatenation is
// globally sorted — the output is byte-identical to a single std::sort
// over the whole array, for every thread count and every radix width.
// Aggregation into unique (code, count) runs is also per-bucket and
// therefore parallel.
//
// This is the Jellyfish-style parallel counting decomposition
// (Marçais & Kingsford 2011) with KMC's radix passes in place of a
// comparison sort, restricted to the exact, deterministic sorted-array
// representation Sec. 2.3 of the paper builds on.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "seq/kmer.hpp"

namespace ngs::util {
class AtomicFile;
class ThreadPool;
}

namespace ngs::kspec {

struct RadixSortOptions {
  /// Bucket count is 2^radix_bits. Negative = choose from input size
  /// (targeting a few thousand codes per bucket); 0 = one bucket, sorted
  /// by LSD passes over the whole key on the calling thread.
  int radix_bits = -1;
  /// Pool for per-bucket work. nullptr = util::default_pool(). The
  /// serial reference below never touches a pool.
  util::ThreadPool* pool = nullptr;
};

/// Picks a radix width for `n` codes of a 2k-bit key: enough buckets to
/// keep per-bucket sorts cache-resident and the pool busy, capped so the
/// offset table stays small and never wider than the key itself.
int choose_radix_bits(std::size_t n, int k) noexcept;

/// Sorts the instance multiset `codes` (destructively) and aggregates it
/// into strictly ascending unique `out_codes` with parallel positive
/// `out_counts` — the (R^k, multiplicity) arrays KSpectrum stores.
/// Equivalent to sort + run-length encode, but partitioned: counting,
/// sorting, and aggregation all run per-bucket on the pool. The second
/// buffer is allocated here, and whichever of the two does not hold the
/// sorted codes is released before the outputs are allocated.
void radix_sort_and_count(std::vector<seq::KmerCode>&& codes, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts,
                          const RadixSortOptions& options = {});

/// The same kernel over caller-owned buffers, for callers that count
/// many batches: `codes` is clobbered, and `scratch` is the second
/// buffer, grown to codes.size() when smaller and otherwise reused as
/// is (its capacity is never released here).
void radix_sort_and_count(std::span<seq::KmerCode> codes,
                          std::vector<seq::KmerCode>& scratch, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts,
                          const RadixSortOptions& options = {});

/// Serial reference path (one std::sort and a run-length loop): no
/// build runs it; the tests diff the radix kernel and the builder
/// against it.
void serial_sort_and_count(std::vector<seq::KmerCode>&& codes,
                           std::vector<seq::KmerCode>& out_codes,
                           std::vector<std::uint32_t>& out_counts);

/// Disk-backed prefix partition for the out-of-core spectrum build
/// (KMC/RECKONER-style): kmer instances are routed by their top
/// `shard_bits` key bits into 2^shard_bits per-bin temp files, so each
/// bin can later be read back, sorted, and counted independently in a
/// fraction of the whole multiset's memory. Bins cover disjoint
/// ascending key ranges — exactly the invariant of the in-memory radix
/// partition above — so per-bin (code, count) runs concatenate into the
/// globally sorted spectrum with zero cross-bin merging.
///
/// Write protocol: add() partitions a buffer of codes by bin and appends
/// each bin's share as raw little-endian u64 codes to the bin's
/// util::AtomicFile; threads may add concurrently, each bin's file
/// taking its own lock. close_writes() commits every bin, after which
/// read_bin() serves them back. The order of the codes within a bin
/// file depends on which add() got its lock first, never their multiset.
/// All bin files (and any uncommitted temps, on a failure unwind) are
/// removed on destruction. I/O failures throw ngs::Error(kIo) sited at
/// fault::sites::kSpillWrite/kSpillRead, both drivable from the fault
/// registry.
class SpillPartitioner {
 public:
  /// `dir` must name an existing or creatable directory; bin files are
  /// uniquely named per process and partitioner.
  SpillPartitioner(int k, int shard_bits, std::string dir);
  ~SpillPartitioner();
  SpillPartitioner(const SpillPartitioner&) = delete;
  SpillPartitioner& operator=(const SpillPartitioner&) = delete;

  int shard_bits() const noexcept { return shard_bits_; }
  std::size_t bin_count() const noexcept { return bin_count_; }

  /// Partitions `codes` by bin into `scratch` (grown to codes.size()
  /// when smaller) and appends each bin's share to its file.
  void add(std::span<const seq::KmerCode> codes,
           std::vector<seq::KmerCode>& scratch);

  /// Commits every bin file. add() is invalid afterwards.
  void close_writes();

  /// Instances routed to `bin` so far.
  std::uint64_t bin_instances(std::size_t bin) const noexcept {
    return bins_[bin].instances;
  }
  /// Bins holding at least one instance.
  std::size_t nonempty_bins() const noexcept;
  /// Total bytes spilled to disk across all bins.
  std::uint64_t spilled_bytes() const noexcept;

  /// Reads bin `bin` back as a code multiset (in spill order). Requires
  /// close_writes(); the bin file stays on disk until destruction.
  std::vector<seq::KmerCode> read_bin(std::size_t bin) const;

 private:
  struct Bin {
    std::mutex mutex;  // guards file and instances during add()
    std::unique_ptr<util::AtomicFile> file;  // created on first append
    std::string path;
    std::uint64_t instances = 0;
  };
  void append(Bin& bin, std::span<const seq::KmerCode> codes);

  int k_;
  int shard_bits_;
  int shift_;
  std::string dir_;
  std::size_t bin_count_ = 0;
  std::unique_ptr<Bin[]> bins_;
  bool writable_ = true;
};

}  // namespace ngs::kspec
