#pragma once
// Bounded-memory spectrum construction — the divide-and-merge strategy
// of Sec. 2.3 ("when the collection of input short reads R does not fit
// in main memory, ... R is partitioned into chunks small enough to
// occupy just a portion of main memory. For each chunk, we stream
// through each read and record the k-spectrum and tile information,
// merging it with the data from previous chunks.").
//
// The builder is the one counter of k-mers in reads: KSpectrum::build,
// the streamed methods' pass 1 and ngs-index build all run it. It
// consumes reads in batches (from any source: an in-memory ReadSet, a
// FASTQ stream, a generator), keeps each batch's sorted (code, count)
// run, and merges runs pairwise so peak memory stays proportional to the
// *distinct*-kmer volume plus one batch — never the full instance
// multiset of the input.
//
// Each build allocates one instance buffer and one sort scratch array,
// reuses both for every batch, and releases them before the final
// merge. A batch is sorted and counted by the radix kernel
// (kspec/radix.hpp) the moment the buffer fills, mid-read if need be,
// so the buffer never grows past its capacity whatever the read
// length. The final cascade merges independent run pairs concurrently
// on the same pool, so pass 1 of the correction pipeline scales with
// cores while producing byte-identical spectra.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "seq/read.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

class SpillPartitioner;

/// Out-of-core controls for the bounded-memory (KMC/RECKONER-style)
/// build path. With a non-zero budget the builder buffers raw instances
/// up to roughly a third of the budget, then routes everything through
/// a SpillPartitioner: prefix bins on disk, each small enough to sort
/// and count independently, delivered in ascending prefix order by
/// finish_spilled(). With budget 0 (the default) nothing here is used
/// and the builder behaves exactly as before.
struct SpillOptions {
  /// Peak bytes the build may hold in its own tracked structures
  /// (instance buffer + spill-bin buffers + per-bin finish arrays);
  /// 0 = unlimited (never spill). See peak_tracked_bytes() for what is
  /// counted — thread-pool stacks and malloc overhead are not.
  std::size_t memory_budget_bytes = 0;
  /// Directory for the per-bin spill files; "" = the system temp dir.
  std::string spill_dir;
};

/// Prefix width of the disk partition (capped at 2k): 64 bins keep
/// per-bin memory ~1/64 of the instance volume on uniform data. Only the
/// build sees it; the index written from the bins is flat.
inline constexpr int kSpillShardBits = 6;

class ChunkedSpectrumBuilder {
 public:
  /// `batch_instances` (at least 1024) is the capacity of the instance
  /// buffer: a batch is sorted and merged when it fills (the "portion of
  /// main memory").
  /// `pool` runs batch sorts and run merges; nullptr = the shared
  /// default pool. A non-zero `spill.memory_budget_bytes` switches to
  /// the out-of-core path (batch_instances is then superseded by the
  /// budget-derived spill threshold).
  explicit ChunkedSpectrumBuilder(int k, bool both_strands = true,
                                  std::size_t batch_instances = 1 << 20,
                                  util::ThreadPool* pool = nullptr,
                                  SpillOptions spill = {});
  ~ChunkedSpectrumBuilder();

  /// Streams one read's kmers (and, with both strands, each window's
  /// reverse complement) into the current batch, flushing or spilling
  /// whenever the buffer fills.
  void add_read(std::string_view bases);

  /// Adds every read of one streamed batch.
  void add_read_batch(std::span<const seq::Read> reads);

  /// Finalizes: flushes the last batch and returns the spectrum.
  /// The builder is left empty and reusable. On a spilled build this
  /// concatenates the finish_spilled() runs into one owned spectrum —
  /// memory then scales with the distinct volume again; callers that
  /// need the bounded-memory guarantee end-to-end stream
  /// finish_spilled() into an index::ShardedIndexWriter and map the
  /// file it writes (core::build_spectrum does).
  KSpectrum finish();

  /// One finished prefix bin: the top spill_shard_bits() of every code
  /// equal `prefix`, and codes are strictly ascending within the run.
  struct SortedRun {
    std::uint32_t prefix = 0;
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
  };

  /// Flushes any still-buffered instances to the spill bins and seals
  /// them. Idempotent; only valid once spilled() is true. Called
  /// implicitly by finish()/finish_spilled(), exposed so callers can
  /// read spill_nonempty_bins() before the runs arrive.
  void flush_spill();

  /// Out-of-core finalization: reads each non-empty spill bin back,
  /// sorts and counts it in isolation with the radix kernel, and hands
  /// the runs to `consume` in ascending prefix order. Peak memory is one
  /// bin at a time — the full spectrum never exists in this process
  /// unless the consumer accumulates it. The builder is left empty and
  /// reusable.
  void finish_spilled(const std::function<void(SortedRun&&)>& consume);

  /// Peak number of buffered instances observed (for tests/telemetry);
  /// never more than the buffer's capacity.
  std::size_t peak_buffered() const noexcept { return peak_buffered_; }

  // --- Budget-mode observability (all zero/false without a budget) ---
  /// True once at least one instance was written to a spill bin.
  bool spilled() const noexcept { return spilled_; }
  /// Disk-partition width actually in use (after clamping).
  int spill_shard_bits() const noexcept { return spill_shard_bits_; }
  /// Non-empty spill bins: the runs finish_spilled() will deliver.
  /// Requires flush_spill().
  std::size_t spill_nonempty_bins() const noexcept;
  /// Total bytes written to spill files.
  std::uint64_t spill_bytes() const noexcept { return spill_bytes_; }
  /// Directory the spill files live in (resolved from SpillOptions).
  const std::string& spill_dir() const noexcept { return spill_dir_; }
  /// The builder's own memory accounting, maxed over the whole build:
  /// instance-buffer capacity + sort-scratch capacity + spill-bin
  /// buffer capacity + the per-bin read/sort/count arrays of the finish
  /// phase. This is the number the bounded-memory acceptance test
  /// asserts against the budget; it survives finish() so callers can
  /// read it afterwards (reset by the next add_read on a reused
  /// builder).
  std::size_t peak_tracked_bytes() const noexcept {
    return peak_tracked_bytes_;
  }

 private:
  /// One sorted distinct-(code, count) run, stored as parallel arrays so
  /// the last surviving run hands straight to KSpectrum::from_sorted_counts.
  struct Run {
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
    std::size_t size() const noexcept { return codes.size(); }
  };

  void push(seq::KmerCode code);
  void flush_batch();
  static Run merge_runs(const Run& a, const Run& b);
  void spill_buffer();
  void release_buffers();
  void note_tracked(std::size_t finish_phase_bytes);
  void reset_spill_state();

  int k_;
  bool both_strands_;
  util::ThreadPool* pool_;
  /// batch_instances, or under a budget the spill threshold (~budget/3
  /// worth of 8-byte codes).
  std::size_t buffer_capacity_;
  /// Instances of the current batch; reserved to buffer_capacity_ once
  /// per build and flushed (or spilled) as soon as it is full.
  std::vector<seq::KmerCode> buffer_;
  /// The radix kernel's second buffer, kept across batches.
  std::vector<seq::KmerCode> scratch_;
  /// Sorted distinct runs awaiting the final merge; run i holds ~2^i
  /// merged batches (binary-counter merging, so each instance is merged
  /// O(log batches) times).
  std::vector<Run> runs_;
  std::size_t peak_buffered_ = 0;

  // --- Out-of-core (budget) state; inert when memory_budget_ == 0 ---
  std::size_t memory_budget_ = 0;
  std::string spill_dir_;
  int spill_shard_bits_ = 0;
  std::unique_ptr<SpillPartitioner> partitioner_;
  bool spilled_ = false;
  bool spill_flushed_ = false;
  std::uint64_t spill_bytes_ = 0;
  std::size_t peak_tracked_bytes_ = 0;
  /// finish() keeps the telemetry fields readable; the next add_read on
  /// a reused builder zeroes them for the new build.
  bool finish_pending_reset_ = false;
};

}  // namespace ngs::kspec
