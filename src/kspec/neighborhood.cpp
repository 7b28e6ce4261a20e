#include "kspec/neighborhood.hpp"

#include <array>
#include <bit>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace ngs::kspec {

namespace {

/// Bitmask covering 2-bit groups of positions [begin, end) of a k-mer
/// (position 0 = 5'-most = most significant pair).
seq::KmerCode positions_mask(int k, int begin, int end) {
  seq::KmerCode mask = 0;
  for (int i = begin; i < end; ++i) {
    mask |= seq::KmerCode{3} << (2 * (k - 1 - i));
  }
  return mask;
}

/// Enumerates all subsets of size `d` of {0..c-1}, invoking fn(subset).
void for_each_subset(int c, int d,
                     const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> subset(static_cast<std::size_t>(d));
  std::function<void(int, int)> rec = [&](int start, int depth) {
    if (depth == d) {
      fn(subset);
      return;
    }
    for (int i = start; i <= c - (d - depth); ++i) {
      subset[static_cast<std::size_t>(depth)] = i;
      rec(i + 1, depth + 1);
    }
  };
  rec(0, 0);
}

/// Stably sorts `order` by codes[order[i]] & keep with LSD counting
/// passes of at most 8 bits. A pass covers the lowest unmasked bits not
/// yet sorted by, so fully masked digits cost nothing, and a pass whose
/// digit is the same for every entry is skipped. Started from the
/// identity, ties keep spectrum-index order: the order of a comparator
/// sort on (masked code, index).
void sort_by_masked_code(std::span<const seq::KmerCode> codes,
                         seq::KmerCode keep,
                         std::vector<std::uint32_t>& order) {
  constexpr int kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const std::size_t n = order.size();
  std::vector<std::uint32_t> scratch(n);
  for (seq::KmerCode rest = keep; rest != 0;) {
    const int shift = std::countr_zero(rest);
    rest &= ~((seq::KmerCode{kBuckets} - 1) << shift);
    const auto digit = [&](std::uint32_t i) {
      return static_cast<std::size_t>(((codes[i] & keep) >> shift) &
                                      (kBuckets - 1));
    };
    std::array<std::size_t, kBuckets> start{};
    for (const std::uint32_t i : order) ++start[digit(i)];
    if (std::find(start.begin(), start.end(), n) != start.end()) continue;
    std::size_t sum = 0;
    for (std::size_t& c : start) sum += std::exchange(c, sum);
    for (const std::uint32_t i : order) scratch[start[digit(i)]++] = i;
    order.swap(scratch);
  }
}

}  // namespace

MaskedSortIndex::MaskedSortIndex(const KSpectrum& spectrum, int c, int d,
                                 util::ThreadPool* pool)
    : spectrum_(&spectrum), d_(d) {
  const int k = spectrum.k();
  if (!(d < c && c <= k)) {
    throw std::invalid_argument("MaskedSortIndex: requires d < c <= k");
  }
  // Chunk boundaries: the first (k mod c) chunks get ceil(k/c) positions.
  std::vector<std::pair<int, int>> chunks;
  const int base = k / c;
  const int extra = k % c;
  int pos = 0;
  for (int j = 0; j < c; ++j) {
    const int len = base + (j < extra ? 1 : 0);
    chunks.emplace_back(pos, pos + len);
    pos += len;
  }

  // Materialize the replica masks first, then sort every replica's
  // permutation concurrently — the C(c,d) sorts are independent and
  // dominate construction time. A pair differing in the chunk set D
  // collides in every replica that masks D; the first such subset is D
  // plus the lowest chunks outside D. That subset is this one exactly
  // when every masked chunk above the lowest unmasked one lies in D.
  for_each_subset(c, d, [&](const std::vector<int>& subset) {
    Replica rep;
    int lowest_unmasked = 0;
    for (int j : subset) {
      if (j == lowest_unmasked) ++lowest_unmasked;
    }
    for (int j : subset) {
      const seq::KmerCode chunk =
          positions_mask(k, chunks[static_cast<std::size_t>(j)].first,
                         chunks[static_cast<std::size_t>(j)].second);
      rep.mask |= chunk;
      if (j > lowest_unmasked) rep.must_differ.push_back(chunk);
    }
    replicas_.push_back(std::move(rep));
  });

  util::ThreadPool& sort_pool =
      pool != nullptr ? *pool : util::default_pool();
  const seq::KmerCode key_bits =
      k == 32 ? ~seq::KmerCode{0} : (seq::KmerCode{1} << (2 * k)) - 1;
  sort_pool.parallel_for(0, replicas_.size(), [&](std::size_t r) {
    Replica& rep = replicas_[r];
    rep.order.resize(spectrum.size());
    for (std::size_t i = 0; i < spectrum.size(); ++i) {
      rep.order[i] = static_cast<std::uint32_t>(i);
    }
    sort_by_masked_code(spectrum.codes(), ~rep.mask & key_bits, rep.order);
  });
}

std::size_t MaskedSortIndex::memory_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& rep : replicas_) {
    bytes += rep.order.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace ngs::kspec
