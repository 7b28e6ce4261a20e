#include "reptile/corrector.hpp"

#include <algorithm>
#include <mutex>

#include "kspec/chunked_builder.hpp"
#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "util/memory.hpp"
#include "util/thread_pool.hpp"

namespace ngs::reptile {
namespace {

/// Converts the eligible N's of one read in place: an ambiguous base
/// becomes p.default_base, at quality 0, when no window of
/// effective_ambig_window() bases covering it holds more than
/// effective_ambig_max() ambiguous bases. `prefix` is scratch for the
/// ambiguity prefix sums. Returns the number of bases converted.
std::uint64_t convert_ambiguous(std::string& bases,
                                std::vector<std::uint8_t>& quality,
                                std::vector<int>& prefix,
                                const ReptileParams& p) {
  const int w = p.effective_ambig_window();
  const int amax = p.effective_ambig_max();
  const auto L = static_cast<int>(bases.size());
  const int win = std::min(w, L);
  if (win <= 0) return 0;
  prefix.assign(static_cast<std::size_t>(L) + 1, 0);
  for (int i = 0; i < L; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] +
        (seq::is_ambiguous(bases[static_cast<std::size_t>(i)]) ? 1 : 0);
  }
  std::uint64_t converted = 0;
  for (int i = 0; i < L; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (!seq::is_ambiguous(bases[ui])) continue;
    const int s_lo = std::max(0, i - win + 1);
    const int s_hi = std::min(i, L - win);
    int max_in_window = 0;
    for (int s = s_lo; s <= s_hi; ++s) {
      max_in_window =
          std::max(max_in_window, prefix[static_cast<std::size_t>(s + win)] -
                                      prefix[static_cast<std::size_t>(s)]);
    }
    if (max_in_window <= amax) {
      bases[ui] = p.default_base;
      if (ui < quality.size()) quality[ui] = 0;
      ++converted;
    }
  }
  return converted;
}

/// A read with its eligible N's converted (convert_ambiguous), in
/// buffers reused from read to read: phase 1 counts the tables from
/// converted reads, so spectrum lookups during correction never miss.
class Converter {
 public:
  explicit Converter(const ReptileParams& p) : p_(p) {}

  /// `r` itself when it holds no ambiguous base, else the converted copy
  /// (valid until the next call).
  const seq::Read& operator()(const seq::Read& r) {
    if (std::none_of(r.bases.begin(), r.bases.end(), seq::is_ambiguous)) {
      return r;
    }
    read_.bases = r.bases;
    read_.quality = r.quality;
    convert_ambiguous(read_.bases, read_.quality, prefix_, p_);
    return read_;
  }

 private:
  const ReptileParams& p_;
  seq::Read read_;
  std::vector<int> prefix_;
};

/// Memo value layout: tag in the top 2 bits (0 = insufficient,
/// 1 = valid, 2 = corrected+quality-gated, 3 = corrected), the corrected
/// tile code in the low 62.
constexpr std::uint64_t kTagShift = 62;
constexpr std::uint64_t kCodeMask = (std::uint64_t{1} << kTagShift) - 1;

}  // namespace

ReptileCorrector::ReptileCorrector(const seq::ReadPass& pass,
                                   ReptileParams params,
                                   QualityCutoffs cutoffs)
    : params_(params) {
  params_.validate();
  // One converter per pass worker, as each worker counts on its own lane.
  std::vector<Converter> convert(pass.workers, Converter(params_));
  {
    QualityCounts qualities;
    kspec::ChunkedSpectrumBuilder kmers(params_.k, /*both_strands=*/true,
                                        1 << 20, nullptr, {}, pass.workers);
    pass([&](std::span<const seq::Read> batch,
             std::size_t worker) -> seq::BatchFold {
      auto& lane = kmers.lane(worker);
      for (const auto& r : batch) lane.add(convert[worker](r).bases);
      return [&, batch, fold = lane.take()] {
        if (cutoffs == QualityCutoffs::kFromReads) qualities.add(batch);
        fold();
      };
    });
    spectrum_ = kmers.finish();
    if (cutoffs == QualityCutoffs::kFromReads) {
      qualities.select_cutoffs(params_);
    }
  }
  {
    kspec::TileCounter tiles(params_.tile_params(), 1 << 20, nullptr,
                             pass.workers);
    pass([&](std::span<const seq::Read> batch, std::size_t worker) {
      for (const auto& r : batch) {
        const seq::Read& converted = convert[worker](r);
        tiles.add(worker, converted.bases, converted.quality);
      }
      return tiles.take(worker);
    });
    tiles_ = tiles.finish();
  }
  // The counts' batch buffers and merge runs are gone, and so are the
  // graph's replica orders once it is built. Their heap pages go back
  // at each boundary, so the resident set is not their high-water mark
  // plus the graph, and pass 2 starts from the tables alone.
  util::release_free_memory();
  graph_ = kspec::HammingGraph(spectrum_, params_.d);
  util::release_free_memory();
}

ReptileCorrector::ReptileCorrector(const seq::ReadSet& reads,
                                   ReptileParams params)
    : ReptileCorrector(seq::pass_over(reads, util::default_pool().size()),
                       params) {}

void ReptileCorrector::choose_thresholds() {
  select_thresholds(tiles_, params_);
}

void ReptileCorrector::kmer_options(seq::KmerCode code, int d_limit,
                                    Scratch& scratch,
                                    std::vector<seq::KmerCode>& out) const {
  out.push_back(code);
  if (d_limit <= 0) return;
  auto& opt = scratch.opt;
  opt.clear();
  const auto idx = spectrum_.index_of(code);
  if (idx >= 0) {
    // Graph neighbors carry their spectrum index, so the multiplicity is
    // a direct array read — no search per option. The distance check is
    // needed only when the graph was built with a larger d than this
    // call's budget (edges span hd in [1, graph d]).
    const bool check_hd = graph_.d() > d_limit;
    for (const std::uint32_t j :
         graph_.neighbors(static_cast<std::size_t>(idx))) {
      const seq::KmerCode cand = spectrum_.code_at(j);
      if (check_hd && seq::kmer_hamming(cand, code) > d_limit) continue;
      opt.push_back({cand, spectrum_.count_at(j)});
    }
  } else {
    // Novel kmer (not part of the build set): fall back to candidate
    // enumeration, resolved against the spectrum in prefetched batches.
    auto& novel = scratch.novel;
    novel.clear();
    seq::enumerate_neighbors(code, params_.k, d_limit, novel);
    constexpr std::size_t kChunk = 64;
    std::int64_t found[kChunk];
    for (std::size_t base = 0; base < novel.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, novel.size() - base);
      spectrum_.index_of_batch({novel.data() + base, n}, {found, n});
      for (std::size_t i = 0; i < n; ++i) {
        if (found[i] >= 0) {
          opt.push_back({novel[base + i],
                         spectrum_.count_at(static_cast<std::size_t>(found[i]))});
        }
      }
    }
  }
  // Bound the candidate-tile product in repeat-dense neighborhoods: keep
  // the original kmer plus the most abundant neighbors. Sorting on the
  // pre-gathered counts reproduces the historical comparator outcomes
  // (count(a) > count(b)) exactly, without its per-comparison searches.
  if (params_.max_kmer_options > 0 &&
      opt.size() + 1 > params_.max_kmer_options) {
    std::partial_sort(opt.begin(),
                      opt.begin() + static_cast<std::ptrdiff_t>(
                                        params_.max_kmer_options - 1),
                      opt.end(),
                      [](const KmerOption& a, const KmerOption& b) {
                        return a.count > b.count;
                      });
    opt.resize(params_.max_kmer_options - 1);
  }
  for (const KmerOption& o : opt) out.push_back(o.code);
}

ReptileCorrector::TileOutcome ReptileCorrector::correct_tile(
    seq::KmerCode tile, std::span<const std::uint8_t> tile_quality, int d1,
    int d2, Scratch& scratch, TileDecisionCache* cache) const {
  const int T = params_.tile_length();
  TileOutcome outcome;

  // The raw decision depends only on (tile, d1, d2); memoize it when a
  // cache is supplied and the key fits (2T + 4 bits).
  const bool use_cache =
      cache != nullptr && cacheable() && d1 >= 0 && d1 <= 3 && d2 >= 0 &&
      d2 <= 3;
  if (use_cache) {
    const std::uint64_t key =
        (tile << 4) | (static_cast<std::uint64_t>(d1) << 2) |
        static_cast<std::uint64_t>(d2);
    std::uint64_t encoded = 0;
    if (cache->lookup(key, encoded)) {
      const auto tag = static_cast<unsigned>(encoded >> kTagShift);
      outcome.decision = tag == 0 ? TileDecision::kInsufficient
                         : tag == 1 ? TileDecision::kValid
                                    : TileDecision::kCorrected;
      outcome.corrected = encoded & kCodeMask;
      outcome.quality_gated = tag == 2;
    } else {
      outcome = correct_tile_raw(tile, d1, d2, scratch);
      std::uint64_t tag = 0;
      if (outcome.decision == TileDecision::kValid) {
        tag = 1;
      } else if (outcome.decision == TileDecision::kCorrected) {
        tag = outcome.quality_gated ? 2 : 3;
      }
      cache->store(key, (tag << kTagShift) | outcome.corrected);
    }
  } else {
    outcome = correct_tile_raw(tile, d1, d2, scratch);
  }

  // Per-instance quality gate (Algorithm 1, line 14): a strong-branch
  // correction must touch at least one low-confidence base. This is the
  // only read-dependent part of the decision, which is why it stays
  // outside the memo.
  if (outcome.decision == TileDecision::kCorrected && outcome.quality_gated &&
      !tile_quality.empty()) {
    bool touches_low_quality = false;
    for (int i = 0; i < T; ++i) {
      if (seq::kmer_base(tile, T, i) !=
              seq::kmer_base(outcome.corrected, T, i) &&
          tile_quality[static_cast<std::size_t>(i)] < params_.quality_max) {
        touches_low_quality = true;
        break;
      }
    }
    if (!touches_low_quality) return {TileDecision::kInsufficient, 0, false};
  }
  return outcome;
}

ReptileCorrector::TileOutcome ReptileCorrector::correct_tile_raw(
    seq::KmerCode tile, int d1, int d2, Scratch& scratch) const {
  const int k = params_.k;
  const int l = params_.overlap;
  const int T = params_.tile_length();
  const std::uint32_t og_t = tiles_.counts(tile).og;

  // Line 1: overwhelming support validates outright.
  if (og_t >= params_.c_good) return {TileDecision::kValid, 0, false};

  const seq::KmerCode alpha1 = tile >> (2 * (T - k));
  const seq::KmerCode alpha2 = tile & ((seq::KmerCode{1} << (2 * k)) - 1);

  auto& opts1 = scratch.opts1;
  auto& opts2 = scratch.opts2;
  opts1.clear();
  opts2.clear();
  kmer_options(alpha1, d1, scratch, opts1);
  kmer_options(alpha2, d2, scratch, opts2);

  // Enumerate d-mutant tiles present (with high-quality support) in R.
  // The whole cross-product's Og values come from one structured probe:
  // tiles sharing a leading kmer are contiguous in the sorted table, so
  // og_cross does a range find per a1 option plus a short merge instead
  // of a binary search per pair (the former per-candidate lower_bound
  // was pass 2's single hottest call site). Candidate tile codes and
  // Hamming distances are then computed only for the sparse hits.
  auto& cross_og = scratch.cross_og;
  cross_og.resize(opts1.size() * opts2.size());
  tiles_.og_cross(opts1, opts2, cross_og);
  auto& candidates = scratch.candidates;
  candidates.clear();
  std::size_t idx = 0;
  for (const seq::KmerCode a1 : opts1) {
    for (const seq::KmerCode a2 : opts2) {
      const std::uint32_t og = cross_og[idx++];
      if (l > 0) {
        const seq::KmerCode suffix = a1 & ((seq::KmerCode{1} << (2 * l)) - 1);
        const seq::KmerCode prefix = a2 >> (2 * (k - l));
        if (suffix != prefix) continue;
      }
      if (og == 0) continue;
      const seq::KmerCode cand = seq::concat_kmers(a1, k, a2, k, l);
      if (cand == tile) continue;
      candidates.push_back({cand, og, seq::kmer_hamming(cand, tile)});
    }
  }

  // Lines 4-8: no mutant tiles.
  if (candidates.empty()) {
    return og_t >= params_.c_min ? TileOutcome{TileDecision::kValid, 0}
                                 : TileOutcome{TileDecision::kInsufficient, 0};
  }

  if (og_t >= params_.c_min) {
    // Lines 10-15: keep only strongly dominating alternatives.
    const TileCandidate* unique_best = nullptr;
    int min_hd = 0;
    std::size_t dominating = 0;
    for (const auto& c : candidates) {
      if (static_cast<double>(c.og) <
          params_.c_ratio * static_cast<double>(og_t)) {
        continue;
      }
      ++dominating;
      if (dominating == 1 || c.hd < min_hd) {
        min_hd = c.hd;
        unique_best = &c;
      } else if (c.hd == min_hd) {
        unique_best = nullptr;  // ambiguous at the minimal distance
      }
    }
    if (dominating == 0) return {TileDecision::kValid, 0};
    if (unique_best == nullptr) {
      return {TileDecision::kInsufficient, 0, false};  // ambiguous
    }
    // The per-instance low-quality-base gate is applied by the caller.
    return {TileDecision::kCorrected, unique_best->code, true};
  }

  // Lines 17-21: the tile itself is weak; accept a unique trusted mutant.
  const TileCandidate* only = nullptr;
  for (const auto& c : candidates) {
    if (c.og >= params_.c_min) {
      if (only != nullptr) return {TileDecision::kInsufficient, 0};
      only = &c;
    }
  }
  if (only == nullptr) return {TileDecision::kInsufficient, 0};
  return {TileDecision::kCorrected, only->code};
}

void ReptileCorrector::sweep(seq::PackedSeq& bases,
                             const std::vector<std::uint8_t>& quality,
                             CorrectionStats& stats, Scratch& scratch,
                             TileDecisionCache* cache) const {
  const int T = params_.tile_length();
  const int k = params_.k;
  const auto L = static_cast<int>(bases.size());
  if (L < T) return;

  const int advance = T - k;  // suffix-kmer overlap between adjacent tiles
  const int max_iters = 2 * L + 32;
  int pos = 0;
  int d1 = params_.d;
  int d2 = params_.d;
  int frontier = 0;  // validated prefix length
  int stall = 0;

  for (int iter = 0; iter < max_iters && pos + T <= L; ++iter) {
    // Tile extraction is a shift/mask window over the packed words — the
    // N-mask check replaces the historical per-character decode.
    const auto code = bases.window(static_cast<std::size_t>(pos), T);
    TileOutcome outcome{TileDecision::kInsufficient, 0};
    if (code) {
      std::span<const std::uint8_t> q;
      if (quality.size() == bases.size()) {
        q = std::span<const std::uint8_t>(
            quality.data() + pos, static_cast<std::size_t>(T));
      }
      outcome = correct_tile(*code, q, d1, d2, scratch, cache);
    }

    switch (outcome.decision) {
      case TileDecision::kCorrected: {
        ++stats.tiles_corrected;
        for (int i = 0; i < T; ++i) {
          const auto fixed = static_cast<std::uint8_t>(
              seq::kmer_base(outcome.corrected, T, i));
          const auto ui = static_cast<std::size_t>(pos + i);
          if (bases.base_code(ui) != fixed) {
            bases.set_base(ui, fixed);
            ++stats.bases_changed;
          }
        }
        [[fallthrough]];
      }
      case TileDecision::kValid: {
        if (outcome.decision == TileDecision::kValid) ++stats.tiles_valid;
        frontier = pos + T;
        if (frontier >= L) return;
        stall = 0;
        int next = pos + advance;
        if (next + T > L) {
          next = L - T;
          d1 = 1;  // suffix tile: prefix kmer only partially validated
        } else {
          d1 = 0;  // [D1]/[D2]: prefix kmer equals the validated a2
        }
        d2 = params_.d;
        pos = next;
        break;
      }
      case TileDecision::kInsufficient: {
        ++stats.tiles_insufficient;
        ++stall;
        int next;
        if (stall <= 2 && frontier >= T && frontier - T + 1 > pos - T) {
          // [D3a]: slide a tile one base past the validated region.
          next = frontier - T + 1;
          if (next <= pos && frontier >= pos + T) {
            // Already validated past here; step forward instead.
            next = pos + 1;
          }
          d1 = 1;
          d2 = params_.d;
        } else if (stall <= 2 && frontier < T) {
          // No validated prefix yet (5' end): probe forward one base.
          next = pos + 1;
          d1 = params_.d;
          d2 = params_.d;
        } else {
          // [D3b]: jump past the uncorrectable region.
          next = pos + k;
          stall = 0;
          d1 = params_.d;
          d2 = params_.d;
        }
        if (next == pos) next = pos + 1;
        if (next + T > L) {
          if (pos >= L - T) return;  // suffix already tried
          next = L - T;
        }
        pos = next;
        break;
      }
    }
  }
}

seq::Read ReptileCorrector::correct(const seq::Read& read,
                                    CorrectionStats& stats, Scratch& scratch,
                                    TileDecisionCache* cache) const {
  ++stats.reads;
  seq::Read out = read;
  auto& quality = scratch.quality;
  quality = read.quality;
  stats.ambiguous_converted +=
      convert_ambiguous(out.bases, quality, scratch.prefix, params_);

  // The read is packed once here and stays 2-bit until the final decode;
  // both sweeps and the strand flip between them operate on packed words.
  auto& packed = scratch.packed;
  packed.assign(out.bases);

  // 5' -> 3' sweep.
  sweep(packed, quality, stats, scratch, cache);

  // 3' -> 5' sweep via the reverse complement (the tables contain both
  // strands, so lookups are directly valid).
  auto& rc = scratch.rc_packed;
  packed.reverse_complement_into(rc);
  auto& rq = scratch.rq;
  rq.assign(quality.rbegin(), quality.rend());
  sweep(rc, rq, stats, scratch, cache);
  rc.reverse_complement_into(packed);
  // Decode normalizes to uppercase ACGTN — the same canonical form the
  // historical string pipeline's double reverse-complement produced.
  packed.to_string(out.bases);
  return out;
}

std::vector<seq::Read> ReptileCorrector::correct_all(
    const seq::ReadSet& reads, CorrectionStats& stats) const {
  std::vector<seq::Read> out(reads.reads.size());
  std::mutex stats_mutex;
  TileDecisionCache cache(kDefaultTileCacheBytes);
  util::default_pool().parallel_for_blocked(
      0, reads.reads.size(), [&](std::size_t lo, std::size_t hi) {
        CorrectionStats local;
        Scratch scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = correct(reads.reads[i], local, scratch, &cache);
        }
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.merge(local);
      });
  return out;
}

}  // namespace ngs::reptile
