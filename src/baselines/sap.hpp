#pragma once
// SAP baseline — the Spectrum Alignment Problem corrector of
// Pevzner/Tang and Chaisson et al. (Secs. 1.2, 2.2): a kmer is *solid*
// if it occurs more than M times in the reads, *weak* otherwise; a read
// is converted, with a bounded number of substitutions, so that all of
// its kmers are solid.
//
// This implements the Hamming-distance adaptation of Chaisson et al.
// 2009 that Chapter 1 describes: "in each read, if a base change can
// increase the solid kmers to a prescribed amount, then it is applied",
// greedily, with reads classified fixable/unfixable. It is the
// k-spectrum ancestor Reptile is measured against.

#include <cstdint>
#include <string_view>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "seq/read.hpp"
#include "util/flat_counter.hpp"

namespace ngs::baselines {

struct SapParams {
  int k = 12;
  /// Solidity threshold M: kmers with count >= M are solid.
  std::uint32_t solid_threshold = 3;
  /// Max substitutions applied per read before giving up (unfixable).
  int max_edits = 3;
  /// Build the spectrum from both strands.
  bool both_strands = true;
};

struct SapStats {
  std::uint64_t reads_clean = 0;      // already all-solid
  std::uint64_t reads_fixed = 0;      // converted to all-solid
  std::uint64_t reads_unfixable = 0;  // left as-is after max_edits
  std::uint64_t bases_changed = 0;
};

class SapCorrector {
 public:
  /// Per-read buffers of correct(), reused across the reads one worker
  /// corrects. Window w covers bases [w, w + k).
  struct Scratch {
    std::vector<seq::KmerCode> codes;    // window codes, non-ACGT as 0
    std::vector<std::size_t> ambiguous;  // non-ACGT bases in [0, i)
    std::vector<std::size_t> weak;       // weak windows in [0, w)
    std::vector<std::size_t> bucket;     // visit-order offsets by `before`
    std::vector<std::size_t> order;      // positions in visit order
  };

  /// Builds from a pre-aggregated k-spectrum (e.g. streamed through
  /// kspec::ChunkedSpectrumBuilder, so the reads never have to be held
  /// in memory). `spectrum.k()` must equal `params.k`. Keeps only the
  /// spectrum's solid codes, so the spectrum (and the mapping behind a
  /// loaded one) can go once the corrector is built.
  SapCorrector(const kspec::KSpectrum& spectrum, SapParams params);

  const SapParams& params() const noexcept { return params_; }

  /// Number of weak kmers in a read (0 = clean): windows that hold a
  /// non-ACGT base or occur fewer than M times.
  int weak_kmers(std::string_view bases) const;

  /// Greedy conversion: each round applies the lowest (position, base)
  /// whose substitution removes the most weak covering windows, until
  /// the read is clean, no change helps, or max_edits is spent.
  seq::Read correct(const seq::Read& read, SapStats& stats,
                    Scratch& scratch) const;

 private:
  /// Rolls every window code of `bases` once and fills the ambiguous
  /// and weak prefix counts; returns the number of weak windows.
  std::size_t scan_windows(std::string_view bases, Scratch& scratch) const;

  /// True when `code` occurs at least M times. At M = 0 every code is
  /// solid, the absent ones too, so the set is not asked.
  bool solid(seq::KmerCode code) const {
    return params_.solid_threshold == 0 || solid_.contains(code);
  }

  SapParams params_;
  util::FlatSet solid_;  // codes with count >= M; empty at M = 0
};

}  // namespace ngs::baselines
