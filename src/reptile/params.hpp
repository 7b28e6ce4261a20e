#pragma once
// Reptile parameters (Sec. 2.3, "Choosing Parameters") and their
// data-driven selection from the input reads' quality-score and tile
// multiplicity histograms — the paper's alternative to analytical
// calculations under unrealistic uniformity assumptions.

#include <array>
#include <cstdint>
#include <span>

#include "kspec/tile_table.hpp"
#include "seq/read.hpp"

namespace ngs::reptile {

struct ReptileParams {
  int k = 12;          // kmer length (~ceil(log4 |G|))
  int overlap = 0;     // l: tile = a1 ||_l a2, |t| = 2k - l
  int d = 1;           // max Hamming distance per constituent kmer

  int quality_cutoff = 0;   // Qc; 0 disables the quality filter
  int quality_max = 30;     // Qm: a correction must touch a base with q < Qm

  std::uint32_t c_good = 8;  // Cg: auto-validate tiles with Og >= Cg
  std::uint32_t c_min = 3;   // Cm: minimal trusted multiplicity
  double c_ratio = 2.0;      // Cr: required Og(t')/Og(t) for a correction

  /// Cap on the per-kmer option list when forming d-mutant tiles. In
  /// repeat-dense spectra a kmer's 2-neighborhood can hold dozens of
  /// members and the candidate-tile product explodes; keeping the
  /// highest-multiplicity neighbors preserves every plausible correction
  /// source (Algorithm 1 only ever corrects toward dominant tiles).
  std::size_t max_kmer_options = 16;

  // Ambiguous-base handling (Sec. 2.4): attempt to correct an 'N' only if
  // every window of length ambig_window containing it has at most
  // ambig_max N's. Zeros mean "default to k and d".
  int ambig_window = 0;
  int ambig_max = 0;
  char default_base = 'A';

  int tile_length() const noexcept { return 2 * k - overlap; }
  /// The tile table's shape: k, l and Qc, both strands.
  kspec::TileParams tile_params() const noexcept;
  /// Throws std::invalid_argument, naming k, l and the tile length,
  /// unless 0 <= l < k and the tile fits one 64-bit code (<= 32 bases).
  void validate() const;
  int effective_ambig_window() const noexcept {
    return ambig_window > 0 ? ambig_window : k;
  }
  int effective_ambig_max() const noexcept {
    return ambig_max > 0 ? ambig_max : d;
  }
};

/// The parameters that need no look at the reads: k as given, or if
/// k == 0, ceil(log4(genome_length_estimate)) clamped to [10, 15]; every
/// other field at its default (Cr = 2 and d = 1, the paper's).
/// Throws std::invalid_argument (validate()) on an invalid tile.
ReptileParams select_k(std::uint64_t genome_length_estimate, int k = 0);

/// The base-quality histogram of streamed reads, from which Qc and Qm
/// are chosen.
class QualityCounts {
 public:
  void add(std::span<const seq::Read> reads);
  /// Sets Qc at the ~17% quantile of the scores added and Qm at the ~60%
  /// quantile; leaves both unchanged when no read had scores.
  void select_cutoffs(ReptileParams& p) const;

 private:
  std::array<std::uint64_t, 256> bins_{};
};

/// Selects the parameters that need no tile count: select_k, then Qc
/// and Qm from the base qualities of `reads` (QualityCounts).
ReptileParams select_read_parameters(const seq::ReadSet& reads,
                                     std::uint64_t genome_length_estimate,
                                     int k = 0);

/// Sets Cg and Cm from the high-quality multiplicities Og of `tiles`:
/// Cg so ~2% of distinct tiles exceed it, Cm so ~5% do, capped at Cg/4.
/// Leaves both unchanged when the table is empty.
void select_thresholds(const kspec::TileTable& tiles, ReptileParams& p);

/// select_read_parameters, then select_thresholds on a tile table
/// counted from `reads` as given.
ReptileParams select_parameters(const seq::ReadSet& reads,
                                std::uint64_t genome_length_estimate,
                                int k = 0);

}  // namespace ngs::reptile
