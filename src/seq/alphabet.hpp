#pragma once
// DNA alphabet codec: A=0, C=1, G=2, T=3, with 'N' as the ambiguous
// character (Chapter 1: read errors enrich the alphabet to {A,C,G,T,N}).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ngs::seq {

inline constexpr int kAlphabetSize = 4;
inline constexpr std::uint8_t kInvalidBase = 0xff;

namespace detail {

constexpr std::array<std::uint8_t, 256> make_char_code_table() {
  std::array<std::uint8_t, 256> table{};
  for (auto& entry : table) entry = kInvalidBase;
  table['A'] = table['a'] = 0;
  table['C'] = table['c'] = 1;
  table['G'] = table['g'] = 2;
  table['T'] = table['t'] = 3;
  return table;
}

}  // namespace detail

/// The one alphabet → 2-bit code path: a 256-entry table indexed by the
/// raw character, kInvalidBase for non-ACGT (including 'N'). Shared by
/// the kmer codecs and the packed-read layer so every consumer agrees on
/// case handling and N classification.
inline constexpr std::array<std::uint8_t, 256> kCharToCode =
    detail::make_char_code_table();

/// Maps an ASCII nucleotide to its 2-bit code; kInvalidBase for non-ACGT
/// (including 'N'). Case-insensitive.
constexpr std::uint8_t base_to_code(char c) noexcept {
  return kCharToCode[static_cast<unsigned char>(c)];
}

/// Maps a 2-bit code back to its ASCII nucleotide.
constexpr char code_to_base(std::uint8_t code) noexcept {
  constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  return kBases[code & 3];
}

constexpr bool is_acgt(char c) noexcept {
  return base_to_code(c) != kInvalidBase;
}

constexpr bool is_ambiguous(char c) noexcept { return !is_acgt(c); }

/// Watson–Crick complement of a 2-bit code (A<->T, C<->G): code ^ 3.
constexpr std::uint8_t complement_code(std::uint8_t code) noexcept {
  return code ^ 3u;
}

constexpr char complement_base(char c) noexcept {
  const std::uint8_t code = base_to_code(c);
  return code == kInvalidBase ? 'N' : code_to_base(complement_code(code));
}

/// Reverse complement of an ASCII sequence; non-ACGT characters map to 'N'.
std::string reverse_complement(std::string_view s);

/// Number of positions at which two equal-length strings differ.
/// Precondition: a.size() == b.size().
std::size_t hamming_distance(std::string_view a, std::string_view b);

}  // namespace ngs::seq
