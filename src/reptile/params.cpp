#include "reptile/params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "seq/kmer.hpp"
#include "util/stats.hpp"

namespace ngs::reptile {

void ReptileParams::validate() const {
  if (overlap < 0 || overlap >= k || tile_length() > seq::kMaxK) {
    throw std::invalid_argument(
        "reptile: k = " + std::to_string(k) + " and overlap l = " +
        std::to_string(overlap) + " give tile length 2k - l = " +
        std::to_string(tile_length()) +
        "; a tile needs 0 <= l < k and at most " +
        std::to_string(seq::kMaxK) + " bases");
  }
}

kspec::TileParams ReptileParams::tile_params() const noexcept {
  kspec::TileParams tp;
  tp.k = k;
  tp.overlap = overlap;
  tp.quality_cutoff = quality_cutoff;
  tp.both_strands = true;
  return tp;
}

ReptileParams select_k(std::uint64_t genome_length_estimate, int k) {
  ReptileParams p;
  if (k > 0) {
    p.k = k;
  } else if (genome_length_estimate > 0) {
    p.k = static_cast<int>(
        std::ceil(std::log(static_cast<double>(genome_length_estimate)) /
                  std::log(4.0)));
    p.k = std::clamp(p.k, 10, 15);
  }
  p.validate();
  return p;
}

void QualityCounts::add(std::span<const seq::Read> reads) {
  for (const auto& r : reads) {
    for (const std::uint8_t q : r.quality) ++bins_[q];
  }
}

void QualityCounts::select_cutoffs(ReptileParams& p) const {
  // Qc: ~17% of base calls fall below the cutoff. Scores are bytes, so
  // the histogram takes one add per bin.
  util::Histogram quality_hist;
  for (std::size_t q = 0; q < bins_.size(); ++q) {
    if (bins_[q] > 0) {
      quality_hist.add(static_cast<std::int64_t>(q), bins_[q]);
    }
  }
  if (!quality_hist.empty()) {
    p.quality_cutoff = static_cast<int>(quality_hist.quantile(0.17));
    p.quality_max = static_cast<int>(quality_hist.quantile(0.60));
  }
}

ReptileParams select_read_parameters(const seq::ReadSet& reads,
                                     std::uint64_t genome_length_estimate,
                                     int k) {
  ReptileParams p = select_k(genome_length_estimate, k);
  QualityCounts qualities;
  qualities.add(reads.reads);
  qualities.select_cutoffs(p);
  return p;
}

void select_thresholds(const kspec::TileTable& tiles, ReptileParams& p) {
  const auto hist = tiles.og_histogram();
  if (!hist.empty()) {
    p.c_good = static_cast<std::uint32_t>(
        std::max<std::int64_t>(4, hist.quantile(0.98)));
    // Cm: the 95% quantile of the multiplicity histogram, but never more
    // than a quarter of Cg — with strongly 3'-weighted quality profiles
    // the quantile can land inside the valid-tile peak, which would bar
    // legitimate low-Og (3'-heavy) tiles from ever validating. The cap
    // keeps Cm in the valley between the error and genomic peaks, which
    // is where the paper's own sweep (Fig. 2.3) finds the best Gain.
    p.c_min = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        hist.quantile(0.95), 2,
        std::max<std::int64_t>(2, p.c_good / 4)));
  }
}

ReptileParams select_parameters(const seq::ReadSet& reads,
                                std::uint64_t genome_length_estimate, int k) {
  ReptileParams p = select_read_parameters(reads, genome_length_estimate, k);
  select_thresholds(kspec::TileTable::build(reads, p.tile_params()), p);
  return p;
}

}  // namespace ngs::reptile
