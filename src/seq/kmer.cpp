#include "seq/kmer.hpp"

#include <cassert>

namespace ngs::seq {

std::optional<KmerCode> encode_kmer(std::string_view s) {
  assert(s.size() <= static_cast<std::size_t>(kMaxK));
  KmerCode code = 0;
  for (char c : s) {
    const std::uint8_t b = base_to_code(c);
    if (b == kInvalidBase) return std::nullopt;
    code = (code << 2) | b;
  }
  return code;
}

std::string decode_kmer(KmerCode code, int k) {
  std::string s(static_cast<std::size_t>(k), 'A');
  for (int i = k - 1; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = code_to_base(code & 3u);
    code >>= 2;
  }
  return s;
}

KmerCode reverse_complement(KmerCode code, int k) noexcept {
  // Complement every base, then reverse the 2-bit groups.
  std::uint64_t x = ~code;
  x = ((x & 0x3333333333333333ULL) << 2) | ((x >> 2) & 0x3333333333333333ULL);
  x = ((x & 0x0f0f0f0f0f0f0f0fULL) << 4) | ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL);
  x = __builtin_bswap64(x);
  return x >> (64 - 2 * k);
}

void extract_kmers(std::string_view s, int k,
                   std::vector<std::pair<KmerCode, std::uint32_t>>& out) {
  if (s.size() < static_cast<std::size_t>(k)) return;
  const KmerCode mask =
      k == 32 ? ~KmerCode{0} : ((KmerCode{1} << (2 * k)) - 1);
  KmerCode code = 0;
  int valid = 0;  // number of consecutive valid bases ending at i
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint8_t b = base_to_code(s[i]);
    if (b == kInvalidBase) {
      valid = 0;
      code = 0;
      continue;
    }
    code = ((code << 2) | b) & mask;
    if (++valid >= k) {
      out.emplace_back(code, static_cast<std::uint32_t>(i + 1 - k));
    }
  }
}

void extract_kmer_codes(std::string_view s, int k,
                        std::vector<KmerCode>& out) {
  if (s.size() < static_cast<std::size_t>(k)) return;
  const KmerCode mask =
      k == 32 ? ~KmerCode{0} : ((KmerCode{1} << (2 * k)) - 1);
  KmerCode code = 0;
  int valid = 0;
  for (char c : s) {
    const std::uint8_t b = base_to_code(c);
    if (b == kInvalidBase) {
      valid = 0;
      code = 0;
      continue;
    }
    code = ((code << 2) | b) & mask;
    if (++valid >= k) out.push_back(code);
  }
}

namespace {

void enumerate_impl(KmerCode code, int k, int d, int first_pos,
                    std::vector<KmerCode>& out) {
  if (d == 0) return;
  for (int i = first_pos; i < k; ++i) {
    const std::uint8_t current = kmer_base(code, k, i);
    for (std::uint8_t b = 0; b < 4; ++b) {
      if (b == current) continue;
      const KmerCode mutated = kmer_with_base(code, k, i, b);
      out.push_back(mutated);
      // Recurse only to the right of i so each multi-mutation set is
      // generated exactly once.
      enumerate_impl(mutated, k, d - 1, i + 1, out);
    }
  }
}

}  // namespace

void enumerate_neighbors(KmerCode code, int k, int d,
                         std::vector<KmerCode>& out) {
  enumerate_impl(code, k, d, 0, out);
}

}  // namespace ngs::seq
