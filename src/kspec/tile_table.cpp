#include "kspec/tile_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "kspec/radix.hpp"
#include "kspec/read_windows.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec {

TileTable TileTable::build(const seq::ReadSet& reads, const TileParams& params,
                           util::ThreadPool* pool) {
  if (params.tile_length() > seq::kMaxK || params.overlap >= params.k ||
      params.overlap < 0) {
    throw std::invalid_argument("TileTable: invalid k/overlap combination");
  }
  util::ThreadPool& workers = pool != nullptr ? *pool : util::default_pool();
  const int tl = params.tile_length();
  const bool both = params.both_strands;
  const auto qc = params.quality_cutoff;
  // Array 0 takes every tile instance, array 1 the high-quality ones: a
  // window is high quality when none of its bases scores below Qc (a
  // window and its reverse complement cover the same bases).
  auto [all, hq] = detail::fill_windows<2>(
      reads, tl, both, &workers,
      [&](const seq::Read& r, std::array<seq::KmerCode*, 2>& out) {
        const auto& quality = r.quality;
        const bool filter = qc > 0 && !quality.empty();
        std::size_t scanned = 0;
        std::size_t low_end = 0;  // one past the last base scoring < Qc
        detail::for_each_window(
            r.bases, tl,
            [&](seq::KmerCode fwd, seq::KmerCode rc, std::size_t last) {
              *out[0]++ = fwd;
              if (both) *out[0]++ = rc;
              if (filter) {
                for (; scanned <= last && scanned < quality.size();
                     ++scanned) {
                  if (quality[scanned] < qc) low_end = scanned + 1;
                }
                if (low_end > last + 1 - static_cast<std::size_t>(tl)) {
                  return;
                }
              }
              *out[1]++ = fwd;
              if (both) *out[1]++ = rc;
            });
      });

  TileTable table;
  table.params_ = params;
  RadixSortOptions radix;
  radix.pool = &workers;
  // The high-quality subset first: counting it releases its array
  // before the full one needs its sort buffer.
  std::vector<seq::KmerCode> hq_codes;
  std::vector<std::uint32_t> hq_counts;
  radix_sort_and_count(std::move(hq), tl, hq_codes, hq_counts, radix);
  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> oc;
  radix_sort_and_count(std::move(all), tl, codes, oc, radix);
  // Every high-quality tile is a tile: one merge walk places its Og.
  table.og_.assign(codes.size(), 0);
  std::size_t i = 0;
  for (std::size_t h = 0; h < hq_codes.size(); ++h) {
    while (codes[i] != hq_codes[h]) ++i;
    table.og_[i] = hq_counts[h];
  }
  table.oc_ =
      KSpectrum::from_sorted_counts(std::move(codes), std::move(oc), tl);
  return table;
}

TileTable::Counts TileTable::counts(seq::KmerCode tile) const noexcept {
  const std::int64_t i = oc_.index_of(tile);
  if (i < 0) return {};
  return counts_at(static_cast<std::size_t>(i));
}

void TileTable::og_cross(std::span<const seq::KmerCode> a1,
                         std::span<const seq::KmerCode> a2,
                         std::span<std::uint32_t> out) const {
  const std::size_t n1 = a1.size();
  const std::size_t n2 = a2.size();
  if (out.size() != n1 * n2) {
    throw std::invalid_argument("og_cross: out size != a1.size() * a2.size()");
  }
  if (n1 == 0 || n2 == 0) return;
  std::fill(out.begin(), out.end(), 0u);
  const int k = params_.k;
  const int low_bits = 2 * (k - params_.overlap);  // a2's tile contribution
  const seq::KmerCode low_mask = (seq::KmerCode{1} << low_bits) - 1;

  // Sides beyond the stack scratch (far above Reptile's option caps):
  // fall back to independent probes.
  constexpr std::size_t kMaxSide = 64;
  if (n1 > kMaxSide || n2 > kMaxSide) {
    for (std::size_t i = 0; i < n1; ++i) {
      const seq::KmerCode hi = a1[i] << low_bits;
      for (std::size_t j = 0; j < n2; ++j) {
        out[i * n2 + j] = counts(hi | (a2[j] & low_mask)).og;
      }
    }
    return;
  }

  // Sort the a2 contributions once per call. Distinct kmers can mask to
  // the same low bits when l > 0; every tie receives the hit's Og.
  struct LowKey {
    seq::KmerCode low;
    std::uint32_t j;
  };
  LowKey keys2[kMaxSide];
  for (std::size_t j = 0; j < n2; ++j) {
    keys2[j] = {a2[j] & low_mask, static_cast<std::uint32_t>(j)};
  }
  std::sort(keys2, keys2 + n2,
            [](const LowKey& x, const LowKey& y) { return x.low < y.low; });

  // The first tile of each a1 run: the lower bound of a1[i] << low_bits.
  seq::KmerCode starts[kMaxSide];
  std::size_t r0[kMaxSide];
  for (std::size_t i = 0; i < n1; ++i) starts[i] = a1[i] << low_bits;
  oc_.lower_bound_batch({starts, n1}, {r0, n1});

  // Walk each a1 run (short: the distinct tiles extending one kmer) and
  // merge it against the sorted a2 contributions.
  const std::span<const seq::KmerCode> codes = oc_.codes();
  for (std::size_t i = 0; i < n1; ++i) {
    std::uint32_t* row = out.data() + i * n2;
    const seq::KmerCode prefix = a1[i];
    for (std::size_t r = r0[i];
         r < codes.size() && (codes[r] >> low_bits) == prefix; ++r) {
      const seq::KmerCode low = codes[r] & low_mask;
      std::size_t t = 0;
      std::size_t hi2 = n2;
      while (t < hi2) {
        const std::size_t mid = (t + hi2) / 2;
        if (keys2[mid].low < low) {
          t = mid + 1;
        } else {
          hi2 = mid;
        }
      }
      for (; t < n2 && keys2[t].low == low; ++t) row[keys2[t].j] = og_[r];
    }
  }
}

util::Histogram TileTable::og_histogram() const {
  util::Histogram h;
  for (const std::uint32_t og : og_) {
    h.add(static_cast<std::int64_t>(og));
  }
  return h;
}

}  // namespace ngs::kspec
