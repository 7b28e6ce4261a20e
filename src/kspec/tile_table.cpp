#include "kspec/tile_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace ngs::kspec {

namespace {

const TileParams& checked(const TileParams& params) {
  if (params.tile_length() > seq::kMaxK || params.overlap >= params.k ||
      params.overlap < 0) {
    throw std::invalid_argument("TileTable: invalid k/overlap combination");
  }
  return params;
}

}  // namespace

TileCounter::TileCounter(const TileParams& params,
                         std::size_t batch_instances, util::ThreadPool* pool,
                         std::size_t lanes)
    : params_(checked(params)),
      all_(params.tile_length(), params.both_strands, batch_instances, pool,
           {}, lanes),
      high_quality_(params.tile_length(), params.both_strands,
                    batch_instances, pool, {}, lanes),
      masked_(all_.lanes()) {}

void TileCounter::add(std::size_t lane, std::string_view bases,
                      std::span<const std::uint8_t> quality) {
  all_.lane(lane).add(bases);
  const int qc = params_.quality_cutoff;
  if (qc <= 0) return;  // Og is Oc
  auto& og = high_quality_.lane(lane);
  if (quality.empty()) {
    og.add(bases);
    return;
  }
  std::string& masked = masked_[lane];
  masked.assign(bases);
  const std::size_t n = std::min(masked.size(), quality.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (quality[i] < qc) masked[i] = 'N';
  }
  og.add(masked);
}

seq::BatchFold TileCounter::take(std::size_t lane) {
  return [all = all_.lane(lane).take(),
          high_quality = high_quality_.lane(lane).take()] {
    all();
    high_quality();
  };
}

seq::BatchFold TileCounter::count(std::span<const seq::Read> reads,
                                  std::size_t lane) {
  for (const auto& r : reads) add(lane, r.bases, r.quality);
  return take(lane);
}

TileTable TileCounter::finish() {
  TileTable table;
  table.params_ = params_;
  // Every lane of both builders goes before either merge; then Og, so
  // its runs are gone before the larger Oc merge.
  all_.close_lanes();
  high_quality_.close_lanes();
  const KSpectrum high_quality = high_quality_.finish();
  table.oc_ = all_.finish();
  if (params_.quality_cutoff <= 0) {
    const auto oc = table.oc_.counts();
    table.og_.assign(oc.begin(), oc.end());
    return table;
  }
  // Every high-quality tile is a tile: one merge walk places its Og.
  table.og_.assign(table.oc_.size(), 0);
  const auto codes = table.oc_.codes();
  std::size_t i = 0;
  for (std::size_t h = 0; h < high_quality.size(); ++h) {
    while (codes[i] != high_quality.code_at(h)) ++i;
    table.og_[i] = high_quality.count_at(h);
  }
  return table;
}

TileTable TileTable::build(const seq::ReadSet& reads, const TileParams& params,
                           util::ThreadPool* pool) {
  util::ThreadPool& p = pool != nullptr ? *pool : util::default_pool();
  const seq::ReadPass pass = seq::pass_over(reads, p.size());
  TileCounter counter(params, 1 << 20, &p, pass.workers);
  pass([&counter](std::span<const seq::Read> batch, std::size_t lane) {
    return counter.count(batch, lane);
  });
  return counter.finish();
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
