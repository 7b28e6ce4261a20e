#pragma once
// Runtime CPU-dispatch shim for the pass-2 packed-kmer kernel. The
// neighborhood candidate scan is, at its core, XOR + popcount over 2-bit
// packed words; this header exposes that kernel, the masked-sort
// collision-run filter, behind a dispatch table resolved once at
// startup:
//
//   scalar — portable baseline, always available, and the only path
//            compiled when the build sets -DNGS_SIMD=OFF;
//   AVX2   — x86-64, 4 codes per iteration (vpshufb nibble popcount),
//            compiled with a per-function target attribute so the rest
//            of the binary stays baseline-ISA;
//   NEON   — aarch64 (vcnt), baseline on that architecture.
//
// Selection order: the NGS_SIMD environment variable ("scalar", "avx2",
// "neon", "auto"/unset; unsupported requests fall back to scalar), then
// the best level the CPU supports. Every level returns bit-identical
// results — the dispatch tests assert it on random neighborhoods — so
// forcing NGS_SIMD=scalar is purely a testing/portability lever.

#include <cstddef>
#include <cstdint>

namespace ngs::util::simd {

enum class Level : int { kScalar = 0, kAVX2 = 1, kNEON = 2 };

/// Human-readable level name ("scalar", "avx2", "neon").
const char* level_name(Level level) noexcept;

/// True when `level` is compiled in and the running CPU supports it.
bool supported(Level level) noexcept;

/// The dispatch level in effect (resolved once on first use).
Level active() noexcept;

/// Testing/bench hook: re-point the dispatch table at `level` (falls
/// back to scalar when unsupported). Callers must not race this against
/// in-flight kernel calls; intended for startup, tests, and benches.
void force_level(Level level) noexcept;

/// Hamming distance between two equal-length (<= 32) 2-bit packed kmer
/// codes — the scalar reference, also used for the kernel's tails.
constexpr int hamming2(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t x = a ^ b;
  x = (x | (x >> 1)) & 0x5555555555555555ULL;
  return __builtin_popcountll(x);
}

/// Scans the permutation run order[0..limit) while
/// (codes[order[i]] & keep) == key, appending to `out` every order[i]
/// whose code lies within Hamming distance [1, d] of `query`. Returns
/// the number of entries consumed (the run length, capped at `limit`);
/// *out_n receives the hit count. `out` must have room for `limit`
/// entries. This is the masked-sort collision-run filter of the
/// neighborhood index, fused so the code gather feeds both the run
/// continuation test and the XOR/popcount distance filter.
std::size_t masked_run_filter(const std::uint64_t* codes,
                              const std::uint32_t* order, std::size_t limit,
                              std::uint64_t keep, std::uint64_t key,
                              std::uint64_t query, int d, std::uint32_t* out,
                              std::size_t* out_n) noexcept;

}  // namespace ngs::util::simd
