#pragma once
// Tile occurrence table (Sec. 2.2-2.3): a tile is the l-concatenation of
// two adjacent kmers of a read, t = a1 ||_l a2, |t| = 2k - l <= 32. For
// every distinct tile the table records
//   Oc — its total multiplicity in R (both strands), and
//   Og — the multiplicity counting only instances in which every base has
//        quality score >= Qc (Og = Oc when quality is unavailable).
// Algorithm 1 (tile correction) bases all decisions on Og.
//
// The distinct tiles and their Oc form a KSpectrum at k = tile length
// (sorted codes, prefix-bucket table, batched descent), so tile probes
// are spectrum probes; Og is one column beside it.
//
// TileCounter counts both from streamed reads on two
// ChunkedSpectrumBuilders at k = tile length: every window for Oc, and
// for Og the windows left when the bases scoring below Qc are masked to
// N. A window survives the mask exactly when none of its bases scores
// below Qc, the Og rule, so no whole-input tile array is ever filled.
// Each worker of the feeding pass counts its batches on its own lane of
// both builders, and the batch's fold merges both lanes' runs; the
// lanes of both builders are released before either final merge.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kspec/chunked_builder.hpp"
#include "kspec/kspectrum.hpp"
#include "seq/kmer.hpp"
#include "seq/read.hpp"
#include "util/stats.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

struct TileParams {
  int k = 12;
  int overlap = 0;          // l; tile length = 2k - l
  int quality_cutoff = 0;   // Qc; 0 disables the quality filter
  bool both_strands = true;

  int tile_length() const noexcept { return 2 * k - overlap; }
};

class TileTable {
 public:
  TileTable() = default;

  /// Counts every tile of `reads` with a TileCounter fed by blocks of
  /// the set on as many workers as `pool` has threads (nullptr =
  /// util::default_pool()), which also runs the final merges, so the
  /// table is identical for every pool size. Throws
  /// std::invalid_argument unless 0 <= overlap < k and the tile length
  /// is at most 32.
  static TileTable build(const seq::ReadSet& reads, const TileParams& params,
                         util::ThreadPool* pool = nullptr);

  struct Counts {
    std::uint32_t oc = 0;
    std::uint32_t og = 0;
  };

  const TileParams& params() const noexcept { return params_; }
  int tile_length() const noexcept { return params_.tile_length(); }
  std::size_t size() const noexcept { return oc_.size(); }

  /// Occurrence counts of a packed tile code (zeros if absent).
  Counts counts(seq::KmerCode tile) const noexcept;

  /// Og's of Algorithm 1's full candidate cross-product in one call:
  /// out[i * a2.size() + j] = og of the tile whose leading kmer is a1[i]
  /// and whose trailing kmer contributes a2[j]'s low 2(k-l) bits — i.e.
  /// counts(concat_kmers(a1[i], k, a2[j], k, l)).og. Exploits that all
  /// tiles sharing a leading kmer are contiguous in the sorted table:
  /// one batched lower bound (KSpectrum::lower_bound_batch) finds every
  /// a1 entry's run, and a merge of that (short) run against the sorted
  /// a2 contributions replaces a full binary search per pair. Values are
  /// bit-identical to per-pair counts().
  /// Precondition: out.size() == a1.size() * a2.size().
  void og_cross(std::span<const seq::KmerCode> a1,
                std::span<const seq::KmerCode> a2,
                std::span<std::uint32_t> out) const;

  /// Histogram of high-quality multiplicities Og over distinct tiles —
  /// the input to Reptile's data-driven choice of Cg and Cm.
  util::Histogram og_histogram() const;

  seq::KmerCode code_at(std::size_t i) const noexcept {
    return oc_.code_at(i);
  }
  Counts counts_at(std::size_t i) const noexcept {
    return {oc_.count_at(i), og_[i]};
  }

 private:
  friend class TileCounter;

  TileParams params_;
  KSpectrum oc_;  // distinct tile codes with their Oc
  std::vector<std::uint32_t> og_;  // parallel to oc_'s codes
};

/// Streams reads into a TileTable. The table does not depend on how the
/// reads are batched, on the lane a batch is counted on, or on the pool
/// size.
class TileCounter {
 public:
  /// Throws std::invalid_argument unless 0 <= overlap < k and the tile
  /// length is at most 32. `batch_instances`, `pool` and `lanes` size
  /// and run each of the two builders (see ChunkedSpectrumBuilder).
  explicit TileCounter(const TileParams& params,
                       std::size_t batch_instances = 1 << 20,
                       util::ThreadPool* pool = nullptr,
                       std::size_t lanes = 1);

  /// Counts the tiles of one read on lane `lane`. `quality` holds its
  /// Phred scores (empty when unavailable: every window then counts
  /// toward Og too). One thread at a time may use a lane.
  void add(std::size_t lane, std::string_view bases,
           std::span<const std::uint8_t> quality);

  /// Ends the lane's batch: the fold merges what both of its builders'
  /// lanes counted (ChunkedSpectrumBuilder::Lane::take).
  seq::BatchFold take(std::size_t lane);

  /// The counting step of a seq::ReadPass: every read of `reads` on lane
  /// `lane`, then take(lane).
  seq::BatchFold count(std::span<const seq::Read> reads, std::size_t lane);

  /// The table of every tile added. The counter is left empty.
  TileTable finish();

 private:
  TileParams params_;
  ChunkedSpectrumBuilder all_;           // Oc: every window
  ChunkedSpectrumBuilder high_quality_;  // Og: windows with no base < Qc
  std::vector<std::string> masked_;      // per lane: a read, low bases N'd
};

}  // namespace ngs::kspec
