#include "baselines/sap.hpp"

#include <algorithm>
#include <stdexcept>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"

namespace ngs::baselines {

namespace {

/// The codes of `spectrum` that occur at least `threshold` times; none
/// at threshold 0, where SapCorrector::solid asks no set.
util::FlatSet solid_codes(const kspec::KSpectrum& spectrum,
                          std::uint32_t threshold) {
  if (threshold == 0) return util::FlatSet(0);
  const auto counts = spectrum.counts();
  const auto is_solid = [threshold](std::uint32_t c) { return c >= threshold; };
  util::FlatSet set(static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.end(), is_solid)));
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (is_solid(counts[i])) set.insert(spectrum.code_at(i));
  }
  return set;
}

}  // namespace

SapCorrector::SapCorrector(const kspec::KSpectrum& spectrum,
                           SapParams params)
    : params_(params), solid_(solid_codes(spectrum, params.solid_threshold)) {
  if (!spectrum.empty() && spectrum.k() != params_.k) {
    throw std::invalid_argument("SapCorrector: spectrum k != params.k");
  }
}

std::size_t SapCorrector::scan_windows(std::string_view bases,
                                       Scratch& scratch) const {
  const int k = params_.k;
  const auto ku = static_cast<std::size_t>(k);
  const std::size_t n = bases.size();
  const std::size_t windows = seq::max_kmer_windows(n, k);
  const seq::KmerCode mask =
      k == seq::kMaxK ? ~seq::KmerCode{0} : (seq::KmerCode{1} << (2 * k)) - 1;
  auto& ambiguous = scratch.ambiguous;
  auto& codes = scratch.codes;
  ambiguous.resize(n + 1);
  codes.resize(windows);
  ambiguous[0] = 0;
  seq::KmerCode code = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = seq::base_to_code(bases[i]);
    const bool is_ambiguous = b == seq::kInvalidBase;
    ambiguous[i + 1] = ambiguous[i] + is_ambiguous;
    code = ((code << 2) | (is_ambiguous ? 0u : b)) & mask;
    if (i + 1 >= ku) codes[i + 1 - ku] = code;
  }

  auto& weak = scratch.weak;
  weak.resize(windows + 1);
  weak[0] = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    const bool is_weak =
        ambiguous[w + ku] != ambiguous[w] || !solid(codes[w]);
    weak[w + 1] = weak[w] + is_weak;
  }
  return weak[windows];
}

int SapCorrector::weak_kmers(std::string_view bases) const {
  Scratch scratch;
  return static_cast<int>(scan_windows(bases, scratch));
}

seq::Read SapCorrector::correct(const seq::Read& read, SapStats& stats,
                                Scratch& scratch) const {
  seq::Read out = read;
  std::size_t weak = scan_windows(out.bases, scratch);
  if (weak == 0) {
    ++stats.reads_clean;
    return out;
  }

  // Greedy: each round applies the single base change that removes the
  // most weak kmers, the lowest (position, base) among equals; stop when
  // clean or no change improves. Only the kmers covering the mutated
  // position can change solidity, so the evaluation is local: position
  // p is covered by windows [lo(p), hi(p)], and `before` (its weak
  // covering windows) is one prefix-sum difference.
  const int k = params_.k;
  const auto ku = static_cast<std::size_t>(k);
  const std::size_t n = out.bases.size();
  const std::size_t last = n - ku;  // weak > 0, so n >= k
  auto& codes = scratch.codes;
  auto& ambiguous = scratch.ambiguous;
  auto& weak_prefix = scratch.weak;
  auto& bucket = scratch.bucket;
  auto& order = scratch.order;
  const auto lo_of = [&](std::size_t pos) {
    return pos >= ku - 1 ? pos - (ku - 1) : 0;
  };
  const auto hi_of = [&](std::size_t pos) { return std::min(pos, last); };
  const auto before_of = [&](std::size_t pos) {
    return weak_prefix[hi_of(pos) + 1] - weak_prefix[lo_of(pos)];
  };

  for (int edit = 0; edit < params_.max_edits && weak > 0; ++edit) {
    // Visit positions by descending `before`, ties by ascending position:
    // a counting order over buckets k - before (before <= k). Positions
    // with before == 0 cannot remove a weak window and are left out.
    bucket.assign(ku + 1, 0);
    for (std::size_t pos = 0; pos < n; ++pos) ++bucket[ku - before_of(pos)];
    std::size_t visits = 0;
    for (std::size_t b = 0; b < ku; ++b) {
      const std::size_t size = bucket[b];
      bucket[b] = visits;
      visits += size;
    }
    order.resize(visits);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t before = before_of(pos);
      if (before > 0) order[bucket[ku - before]++] = pos;
    }

    // The best so far ranks by (delta desc, position asc, base asc), the
    // order in which the position-major scan accepted a strictly larger
    // delta. A candidate's delta starts at `before` and only falls as its
    // windows are probed, so both cuts below are exact: a position whose
    // `before` cannot win ends the visit (every later one ranks lower),
    // and a candidate stops once its delta cannot win. A delta of 0 never
    // wins (best_pos starts at 0), so the delta cannot wrap.
    std::size_t best_delta = 0;
    std::size_t best_pos = 0;
    std::uint8_t best_base = seq::kInvalidBase;
    std::uint64_t best_weak = 0;  // weak covering windows, bit s - lo
    const auto can_win = [&](std::size_t delta, std::size_t pos) {
      return delta > best_delta || (delta == best_delta && pos < best_pos);
    };
    for (const std::size_t pos : order) {
      const std::size_t before = before_of(pos);
      if (!can_win(before, pos)) break;
      const std::size_t lo = lo_of(pos);
      const std::size_t hi = hi_of(pos);
      const std::uint8_t original = seq::base_to_code(out.bases[pos]);
      // A window stays weak while it holds a non-ACGT base besides pos.
      const std::size_t own = original == seq::kInvalidBase ? 1 : 0;
      for (std::uint8_t b = 0; b < 4 && can_win(before, pos); ++b) {
        if (b == original) continue;
        std::size_t delta = before;
        std::uint64_t weak_windows = 0;
        bool wins = true;
        for (std::size_t s = lo; s <= hi && wins; ++s) {
          if (ambiguous[s + ku] - ambiguous[s] > own ||
              !solid(seq::kmer_with_base(codes[s], k,
                                         static_cast<int>(pos - s), b))) {
            weak_windows |= std::uint64_t{1} << (s - lo);
            wins = can_win(--delta, pos);
          }
        }
        if (wins) {
          best_delta = delta;
          best_pos = pos;
          best_base = b;
          best_weak = weak_windows;
        }
      }
    }
    if (best_base == seq::kInvalidBase) break;  // no improving change

    // Apply it: patch the covering window codes, the ambiguous counts and
    // the weak prefix sums in place (the covering windows lose
    // best_delta weak ones, so every later prefix drops by as much).
    if (seq::is_ambiguous(out.bases[best_pos])) {
      for (std::size_t i = best_pos + 1; i <= n; ++i) --ambiguous[i];
    }
    out.bases[best_pos] = seq::code_to_base(best_base);
    ++stats.bases_changed;
    const std::size_t lo = lo_of(best_pos);
    const std::size_t hi = hi_of(best_pos);
    std::size_t run = weak_prefix[lo];
    for (std::size_t s = lo; s <= hi; ++s) {
      codes[s] = seq::kmer_with_base(codes[s], k,
                                     static_cast<int>(best_pos - s), best_base);
      run += (best_weak >> (s - lo)) & 1u;
      weak_prefix[s + 1] = run;
    }
    for (std::size_t w = hi + 2; w <= last + 1; ++w) {
      weak_prefix[w] -= best_delta;
    }
    weak -= best_delta;
  }
  if (weak == 0) {
    ++stats.reads_fixed;
  } else {
    ++stats.reads_unfixable;
  }
  return out;
}

}  // namespace ngs::baselines
