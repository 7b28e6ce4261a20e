#pragma once
// Bounded-memory spectrum construction — the divide-and-merge strategy
// of Sec. 2.3 ("when the collection of input short reads R does not fit
// in main memory, ... R is partitioned into chunks small enough to
// occupy just a portion of main memory. For each chunk, we stream
// through each read and record the k-spectrum and tile information,
// merging it with the data from previous chunks.").
//
// The builder is the one counter of k-mers in reads: KSpectrum::build,
// the TileCounter behind every tile table, the streamed methods' pass 1,
// Reptile's passes and ngs-index build all run it. Reads enter through
// lanes, one per worker of the seq::ReadPass that feeds the build. A
// lane rolls its batch's windows into its own instance buffer and
// radix-counts them on its worker's thread into sorted (code, count)
// runs; the batch's fold, which the pass runs in input order on one
// thread, merges those runs into the earlier ones pairwise, so peak
// memory stays proportional to the *distinct*-kmer volume plus one
// batch per lane — never the full instance multiset of the input.
//
// A lane keeps its buffer and its sort scratch for every batch it
// counts, and counts the buffer the moment it fills, mid-read if need
// be, so the buffer never grows past its capacity whatever the read
// length. finish() releases every lane, then merges the surviving runs
// in one pass over disjoint key ranges on the pool, straight into the
// output arrays. Counts commute, so the spectrum is byte-identical for
// every lane count, batch size and pool size.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "seq/read.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

class SpillPartitioner;

/// Out-of-core controls for the bounded-memory (KMC/RECKONER-style)
/// build path. With a non-zero budget the lanes share a third of it for
/// raw instances and keep them across batches; once the build has
/// counted as many instances as one lane holds, the lanes route
/// everything through a SpillPartitioner: prefix bins on disk, each
/// small enough to sort and count independently, delivered in ascending
/// prefix order by finish_spilled(). With budget 0 (the default)
/// nothing here is used.
struct SpillOptions {
  /// Peak bytes the build may hold in its own tracked structures (lane
  /// buffers + per-bin finish arrays); 0 = unlimited (never spill). See
  /// peak_tracked_bytes() for what is counted — thread stacks and
  /// malloc overhead are not.
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
  /// One sorted distinct-(code, count) run, stored as parallel arrays so
  /// the last surviving run hands straight to
  /// KSpectrum::from_sorted_counts.
  struct Run {
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
    std::size_t size() const noexcept { return codes.size(); }
  };

  /// One worker's counting state: an instance buffer and the radix
  /// kernel's scratch, reused for every batch. A lane is used by one
  /// thread at a time.
  class Lane {
   public:
    /// Adds every window of `bases` free of ambiguous bases (and, with
    /// both strands, each window's reverse complement). A full buffer is
    /// counted into a run, or spilled under a budget, mid-read if need
    /// be.
    void add(std::string_view bases);

    /// Ends the lane's batch. Without a budget the lane counts what it
    /// holds into runs, and the returned fold merges them into the
    /// build. Under a budget the lane keeps its instances, and the fold
    /// only tallies them for the spill decision. Never empty.
    seq::BatchFold take();

   private:
    friend class ChunkedSpectrumBuilder;

    void allocate();
    void flush(bool spill);
    void release() noexcept;

    ChunkedSpectrumBuilder* owner_ = nullptr;
    std::vector<seq::KmerCode> buffer_;
    std::vector<seq::KmerCode> scratch_;
    /// Runs counted since the last take().
    std::vector<Run> runs_;
    /// Instances added since the last take().
    std::uint64_t added_ = 0;
    std::size_t peak_ = 0;
  };

  /// `batch_instances` (at least 1024) is each lane's capacity without a
  /// budget. `pool` runs the final merge and the spill bins' counts;
  /// nullptr = the shared default pool. A non-zero
  /// `spill.memory_budget_bytes` switches to the out-of-core path (the
  /// lane capacity is then derived from the budget). `lanes` (at least
  /// 1) is the number of workers the feeding pass runs.
  explicit ChunkedSpectrumBuilder(int k, bool both_strands = true,
                                  std::size_t batch_instances = 1 << 20,
                                  util::ThreadPool* pool = nullptr,
                                  SpillOptions spill = {},
                                  std::size_t lanes = 1);
  ~ChunkedSpectrumBuilder();
  ChunkedSpectrumBuilder(const ChunkedSpectrumBuilder&) = delete;
  ChunkedSpectrumBuilder& operator=(const ChunkedSpectrumBuilder&) = delete;

  std::size_t lanes() const noexcept { return lanes_.size(); }
  Lane& lane(std::size_t i) { return lanes_[i]; }

  /// The counting step of a seq::ReadPass: every read of `reads` on lane
  /// `lane`, then that lane's take().
  seq::BatchFold count(std::span<const seq::Read> reads, std::size_t lane);

  /// Counts one batch on lane 0 and folds it at once.
  void add_read_batch(std::span<const seq::Read> reads) { count(reads, 0)(); }

  /// Ends the pass: takes and counts (or, for a spilled build, spills)
  /// whatever the lanes still hold, and releases every lane's buffers.
  /// finish() and flush_spill() call it; a caller finishing several
  /// builders calls it on each first, so no lane is alive during any
  /// merge. Idempotent.
  void close_lanes();

  /// Finalizes: closes the lanes and returns the spectrum. The builder
  /// is left empty and reusable. On a spilled build this concatenates
  /// the finish_spilled() runs into one owned spectrum — memory then
  /// scales with the distinct volume again; callers that need the
  /// bounded-memory guarantee end-to-end stream finish_spilled() into an
  /// index::ShardedIndexWriter and map the file it writes
  /// (core::build_spectrum does).
  KSpectrum finish();

  /// One finished prefix bin: the top spill_shard_bits() of every code
  /// equal `prefix`, and codes are strictly ascending within the run.
  struct SortedRun {
    std::uint32_t prefix = 0;
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
  };

  /// Closes the lanes, spilling what they hold, and seals the bins.
  /// Idempotent; only valid once spilled() is true. Called implicitly by
  /// finish()/finish_spilled(), exposed so callers can read
  /// spill_nonempty_bins() before the runs arrive.
  void flush_spill();

  /// Out-of-core finalization: reads the non-empty spill bins back and
  /// sorts and counts each in isolation with the radix kernel, as many
  /// bins at once on the pool as the budget holds, and hands the runs to
  /// `consume` in ascending prefix order. The full spectrum never
  /// exists in this process unless the consumer accumulates it. The
  /// builder is left empty and reusable.
  void finish_spilled(const std::function<void(SortedRun&&)>& consume);

  /// Most instances any lane held at once since its buffers were last
  /// released (for tests/telemetry); never more than the lane capacity.
  /// Read it between passes, not while lanes are in use.
  std::size_t peak_buffered() const noexcept;

  // --- Budget-mode observability (all zero/false without a budget) ---
  /// True once the folds have tallied as many instances as one lane
  /// holds: every instance then goes to the spill bins. Read it after
  /// the pass's folds have run.
  bool spilled() const noexcept {
    return memory_budget_ > 0 && instances_ >= lane_capacity_;
  }
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
  /// the lanes' buffer and scratch capacity, the runs it holds and the
  /// output of the final merge, or the per-bin read/sort/count arrays of
  /// the bins it finishes at once. This is the number the bounded-memory
  /// acceptance test asserts against the budget; it survives finish() so
  /// callers can read it afterwards (reset when a reused builder closes
  /// the lanes of its next build).
  std::size_t peak_tracked_bytes() const noexcept {
    return peak_tracked_bytes_;
  }

 private:
  void fold(std::vector<Run>&& runs);
  SpillPartitioner& partitioner();
  Run merge_held_runs();
  void note_tracked(std::size_t extra_bytes);
  std::size_t lane_bytes() const noexcept;
  std::size_t held_bytes() const noexcept;
  void reset_spill_state();

  int k_;
  bool both_strands_;
  util::ThreadPool* pool_;
  /// Codes per lane buffer: batch_instances, or under a budget a third
  /// of the budget split over the lanes (16 bytes a code with scratch).
  std::size_t lane_capacity_;
  std::vector<Lane> lanes_;
  /// Sorted distinct runs awaiting the final merge; run i holds ~2^i
  /// merged batches (binary-counter merging, so each instance is merged
  /// O(log batches) times). Touched only by folds and finish.
  std::vector<Run> runs_;
  /// Instances the folds have tallied (budget only).
  std::uint64_t instances_ = 0;

  // --- Out-of-core (budget) state; inert when memory_budget_ == 0 ---
  std::size_t memory_budget_ = 0;
  std::string spill_dir_;
  int spill_shard_bits_ = 0;
  /// Created by the first lane that spills.
  std::mutex partitioner_mutex_;
  std::unique_ptr<SpillPartitioner> partitioner_;
  bool spill_flushed_ = false;
  std::uint64_t spill_bytes_ = 0;
  std::size_t peak_tracked_bytes_ = 0;
  /// finish() keeps the telemetry fields readable; the next
  /// close_lanes() on a reused builder zeroes them for the new build.
  bool finish_pending_reset_ = false;
};

}  // namespace ngs::kspec
