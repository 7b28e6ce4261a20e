#pragma once
// 2-bit packed kmer codec for k <= 32, plus Hamming-distance and
// reverse-complement operations on packed codes.
//
// Chapter 2 works with 10 <= k <= 16 (so that 4^k > |G|), and tiles of
// length |t| = 2k - l <= 32, so a single 64-bit word holds every object
// the algorithms manipulate. The most significant 2-bit pair holds the
// first (5'-most) base, so lexicographic order of strings equals numeric
// order of codes — the sorted k-spectrum is then binary-searchable.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"

namespace ngs::seq {

using KmerCode = std::uint64_t;

inline constexpr int kMaxK = 32;

/// Encodes s[0..k) into a packed code. Returns nullopt if any character is
/// ambiguous. Precondition: s.size() <= kMaxK.
std::optional<KmerCode> encode_kmer(std::string_view s);

/// Decodes a packed code of length k back to an ASCII string.
std::string decode_kmer(KmerCode code, int k);

/// Base at position i (0 = 5'-most) of a k-length code.
constexpr std::uint8_t kmer_base(KmerCode code, int k, int i) noexcept {
  return static_cast<std::uint8_t>((code >> (2 * (k - 1 - i))) & 3u);
}

/// Returns the code with position i replaced by `base`.
constexpr KmerCode kmer_with_base(KmerCode code, int k, int i,
                                  std::uint8_t base) noexcept {
  const int shift = 2 * (k - 1 - i);
  return (code & ~(KmerCode{3} << shift)) |
         (static_cast<KmerCode>(base & 3u) << shift);
}

/// Reverse complement of a k-length packed code.
KmerCode reverse_complement(KmerCode code, int k) noexcept;

/// Canonical form: min(code, revcomp(code)).
inline KmerCode canonical(KmerCode code, int k) noexcept {
  const KmerCode rc = reverse_complement(code, k);
  return code < rc ? code : rc;
}

/// Hamming distance between two k-length packed codes (branch-free).
constexpr int kmer_hamming(KmerCode a, KmerCode b) noexcept {
  std::uint64_t x = a ^ b;
  x = (x | (x >> 1)) & 0x5555555555555555ULL;
  return __builtin_popcountll(x);
}

/// kmer_hamming(a, b) <= d without a popcount, which is a libgcc call on
/// baseline x86-64: each step clears one differing base.
constexpr bool kmer_within(KmerCode a, KmerCode b, int d) noexcept {
  std::uint64_t x = a ^ b;
  x = (x | (x >> 1)) & 0x5555555555555555ULL;
  for (int e = 0; e < d && x != 0; ++e) x &= x - 1;
  return x == 0;
}

/// Concatenation a||_l b of a k1-mer and a k2-mer overlapping by l bases
/// (the paper's l-concatenation). Precondition: the suffix-l of a equals
/// the prefix-l of b, and k1 + k2 - l <= 32. Returns the packed
/// (k1+k2-l)-mer.
constexpr KmerCode concat_kmers(KmerCode a, int /*k1*/, KmerCode b, int k2,
                                int l) noexcept {
  return (a << (2 * (k2 - l))) |
         (b & ((k2 - l) == 32 ? ~KmerCode{0}
                              : ((KmerCode{1} << (2 * (k2 - l))) - 1)));
}

/// Number of k-length windows of a sequence of length `len` (0 when the
/// sequence is shorter than k). Upper-bounds the kmer instances a strand
/// can contribute — windows with ambiguous bases are skipped on
/// extraction — so spectrum builders use it to size buffers tightly
/// instead of over-reserving by total bases.
constexpr std::size_t max_kmer_windows(std::size_t len, int k) noexcept {
  return len >= static_cast<std::size_t>(k) ? len - static_cast<std::size_t>(k) + 1 : 0;
}

/// Rolling extraction of all k-mers of s. Windows containing ambiguous
/// characters are skipped. Appends (code, position) pairs.
void extract_kmers(std::string_view s, int k,
                   std::vector<std::pair<KmerCode, std::uint32_t>>& out);

/// As above but codes only.
void extract_kmer_codes(std::string_view s, int k,
                        std::vector<KmerCode>& out);

/// All packed codes within Hamming distance exactly 1..d of `code`
/// (the complete d-neighborhood N^dc minus the kmer itself). Appends to
/// out. Sizes: sum_{e=1..d} C(k,e)*3^e.
void enumerate_neighbors(KmerCode code, int k, int d,
                         std::vector<KmerCode>& out);

}  // namespace ngs::seq
