#pragma once
// Radix counting of packed kmer codes — the one count kernel behind
// ChunkedSpectrumBuilder (its lanes and its spill bins), TileTable and
// KSpectrum::from_codes.
//
// One call sorts its instance multiset on the calling thread by LSD
// counting passes over the whole 2k-bit key, KMC-style: digits of at
// most 8 bits, every pass's histogram filled in one read of the codes,
// a pass whose digit is the same for every code skipped, and at most
// 32 codes insertion-sorted. The passes ping-pong between the input
// and one scratch array, so the kernel never holds more than two
// arrays of n codes; one run-length walk then writes the ascending
// unique (code, count) arrays KSpectrum stores (Sec. 2.3). The output
// is the same as a std::sort and a run-length loop over the multiset.
// Callers that want parallelism count independent batches or bins on
// their own threads (RECKONER's KMC counter splits its k-mers the same
// way) and merge the sorted runs.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "seq/kmer.hpp"

namespace ngs::util {
class AtomicFile;
}

namespace ngs::kspec {

/// Sorts the instance multiset `codes` (destructively) and aggregates it
/// into strictly ascending unique `out_codes` with parallel positive
/// `out_counts` — the (R^k, multiplicity) arrays KSpectrum stores. The
/// second buffer is allocated here, and whichever of the two does not
/// hold the sorted codes is released before the outputs are allocated.
void radix_sort_and_count(std::vector<seq::KmerCode>&& codes, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts);

/// The same kernel over caller-owned buffers, for callers that count
/// many batches: `codes` is clobbered, and `scratch` is the second
/// buffer, grown to codes.size() when smaller and otherwise reused as
/// is (its capacity is never released here).
void radix_sort_and_count(std::span<seq::KmerCode> codes,
                          std::vector<seq::KmerCode>& scratch, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts);

/// Disk-backed prefix partition for the out-of-core spectrum build
/// (KMC/RECKONER-style): kmer instances are routed by their top
/// `shard_bits` key bits into 2^shard_bits per-bin temp files, so each
/// bin can later be read back, sorted, and counted independently in a
/// fraction of the whole multiset's memory. Bins cover disjoint
/// ascending key ranges, so per-bin (code, count) runs concatenate into
/// the globally sorted spectrum with zero cross-bin merging.
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
