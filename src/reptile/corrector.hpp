#pragma once
// Reptile (Sec. 2.3): short-read error correction via representative
// tilings. Phase 1 (construction) builds the k-spectrum, the Hamming
// graph over it, and the tile table with quality-filtered counts;
// phase 2 corrects each read independently by placing tiles, comparing
// them against their d-mutant tiles (Algorithm 1), and choosing
// alternative tile placements on inconclusive decisions (Algorithm 2,
// rules [D1]-[D3]), sweeping 5'->3' and then 3'->5' (via the reverse
// complement, which the double-stranded tables support natively).
//
// Pass-2 performance: at coverage c every erroneous tile recurs in ~c
// reads, so the expensive part of Algorithm 1 — the d-mutant candidate
// enumeration and tile resolution, which depends only on the tile code
// and the (d1, d2) budgets, never on the read — is memoized in a
// util::ShardedCache shared by all correction workers. Only the final
// per-instance quality gate (line 14) consults the read's quality
// scores, and it is applied after the memo lookup, so cached and
// uncached correction are byte-identical for any thread count.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "kspec/tile_table.hpp"
#include "reptile/params.hpp"
#include "seq/packed.hpp"
#include "seq/read.hpp"
#include "util/sharded_cache.hpp"

namespace ngs::reptile {

enum class TileDecision { kValid, kCorrected, kInsufficient };

struct CorrectionStats {
  std::uint64_t reads = 0;
  std::uint64_t tiles_valid = 0;
  std::uint64_t tiles_corrected = 0;
  std::uint64_t tiles_insufficient = 0;
  std::uint64_t bases_changed = 0;
  std::uint64_t ambiguous_converted = 0;

  void merge(const CorrectionStats& o) {
    reads += o.reads;
    tiles_valid += o.tiles_valid;
    tiles_corrected += o.tiles_corrected;
    tiles_insufficient += o.tiles_insufficient;
    bases_changed += o.bases_changed;
    ambiguous_converted += o.ambiguous_converted;
  }
};

/// Default byte budget for a shared tile-decision memo when the caller
/// does not size one explicitly (correct_all, the corrector registry).
inline constexpr std::size_t kDefaultTileCacheBytes = 32u << 20;

/// Concurrent memo of quality-independent tile decisions, shared across
/// every correction worker (lock-striped, bounded capacity; see
/// util::ShardedCache). The memoized value is a pure function of the
/// key, so eviction or a racing store only ever costs a recomputation.
using TileDecisionCache = util::ShardedCache;

/// A d-mutant tile candidate surfaced by Algorithm 1.
struct TileCandidate {
  seq::KmerCode code = 0;
  std::uint32_t og = 0;
  int hd = 0;
};

/// A kmer option with its spectrum multiplicity pre-gathered, so the
/// abundance-ranked truncation in kmer_options sorts on a cached value
/// instead of re-searching the spectrum on every comparison.
struct KmerOption {
  seq::KmerCode code = 0;
  std::uint32_t count = 0;
};

class ReptileCorrector {
 public:
  /// Reusable per-worker scratch for phase 2. One instance per thread
  /// (or per sequential run); reusing it across reads removes every
  /// per-tile heap allocation from the hot path.
  struct Scratch {
    std::vector<seq::KmerCode> opts1;       // kmer options for alpha1
    std::vector<seq::KmerCode> opts2;       // kmer options for alpha2
    std::vector<seq::KmerCode> novel;       // novel-kmer neighbor fallback
    std::vector<KmerOption> opt;            // options + pre-gathered counts
    std::vector<TileCandidate> candidates;  // d-mutant tiles present in R
    std::vector<std::uint32_t> cross_og;    // cross-product Og matrix
    std::vector<std::uint8_t> quality;      // working copy per read
    seq::PackedSeq packed;                  // 2-bit working read
    seq::PackedSeq rc_packed;               // reverse-complement sweep buffer
    std::vector<std::uint8_t> rq;
    std::vector<int> prefix;                // convert_ambiguous prefix sums
  };

  /// Whether phase 1 keeps the given Qc and Qm or chooses them from the
  /// base qualities it streams in pass 0 (QualityCounts).
  enum class QualityCutoffs { kGiven, kFromReads };

  /// Phase 1 over a re-readable input, holding no copy of the reads.
  /// Each read's ambiguous bases that satisfy the density constraint
  /// are converted to params.default_base, batch by batch. Pass 0
  /// counts the k-spectrum of the converted reads (conversion needs only
  /// k and d) and, for kFromReads, the raw base qualities; pass 1
  /// counts the tiles of the converted reads under Qc (TileCounter).
  /// Both passes count each batch on the lane of the pass worker that
  /// reads it. The Hamming graph is then built from the spectrum. The
  /// final merges and the graph run on util::default_pool(). Throws
  /// std::invalid_argument (ReptileParams::validate) before any pass on
  /// an invalid tile.
  ReptileCorrector(const seq::ReadPass& pass, ReptileParams params,
                   QualityCutoffs cutoffs = QualityCutoffs::kGiven);

  /// The same phase 1 over blocks of `reads` on as many workers as
  /// util::default_pool() has threads, with params' Qc and Qm.
  ReptileCorrector(const seq::ReadSet& reads, ReptileParams params);

  /// Sets Cg and Cm by select_thresholds on tiles(), the table counted
  /// from the N-converted reads. Only phase 2 reads them, so a caller
  /// that chose the other parameters without a tile count counts the
  /// tiles once. Must not run concurrently with correct().
  void choose_thresholds();

  const ReptileParams& params() const noexcept { return params_; }
  const kspec::KSpectrum& spectrum() const noexcept { return spectrum_; }
  const kspec::TileTable& tiles() const noexcept { return tiles_; }

  /// Phase 2 for one read; returns the corrected read and accumulates
  /// stats. Thread-safe (const, no shared mutable state beyond `cache`,
  /// which is itself concurrent and may be shared by every worker).
  /// `scratch` must not be shared between concurrent callers.
  seq::Read correct(const seq::Read& read, CorrectionStats& stats,
                    Scratch& scratch,
                    TileDecisionCache* cache = nullptr) const;

  /// Convenience overload with call-local scratch (tests, one-off use).
  seq::Read correct(const seq::Read& read, CorrectionStats& stats) const {
    Scratch scratch;
    return correct(read, stats, scratch, nullptr);
  }

  /// Corrects every read (parallel over the default thread pool), with
  /// per-worker scratch and one shared tile-decision cache.
  std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                     CorrectionStats& stats) const;

  /// True when tile decisions for this parameterization fit the memo
  /// encoding (tile code + distance budgets in 62 bits).
  bool cacheable() const noexcept {
    return 2 * params_.tile_length() + 4 <= 62;
  }

 private:
  struct TileOutcome {
    TileDecision decision = TileDecision::kInsufficient;
    seq::KmerCode corrected = 0;
    /// True when the correction came from the strong-tile branch (lines
    /// 10-15) and must still pass the per-instance low-quality-base gate.
    bool quality_gated = false;
  };

  /// Algorithm 1 on the tile starting at `pos` of the working read.
  TileOutcome correct_tile(seq::KmerCode tile,
                           std::span<const std::uint8_t> tile_quality,
                           int d1, int d2, Scratch& scratch,
                           TileDecisionCache* cache) const;

  /// The quality-independent part of Algorithm 1 (memoizable).
  TileOutcome correct_tile_raw(seq::KmerCode tile, int d1, int d2,
                               Scratch& scratch) const;

  /// Kmers within Hamming distance [0, d_limit] of `code` that occur in
  /// the spectrum (including `code` itself). Appends to `out`; scratch
  /// supplies the enumeration and count-gather buffers. Options beyond
  /// max_kmer_options are dropped lowest-multiplicity-first, with counts
  /// gathered once per option (graph neighbors already carry their
  /// spectrum index; novel kmers resolve through a batched probe).
  void kmer_options(seq::KmerCode code, int d_limit, Scratch& scratch,
                    std::vector<seq::KmerCode>& out) const;

  /// Algorithm 2 sweep over one orientation of the working read (2-bit
  /// packed; tile codes come from shift/mask window extraction).
  void sweep(seq::PackedSeq& bases, const std::vector<std::uint8_t>& quality,
             CorrectionStats& stats, Scratch& scratch,
             TileDecisionCache* cache) const;

  ReptileParams params_;
  kspec::KSpectrum spectrum_;
  kspec::TileTable tiles_;
  kspec::HammingGraph graph_;
};

}  // namespace ngs::reptile
