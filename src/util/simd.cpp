#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && !defined(NGS_SIMD_DISABLED)
#define NGS_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && !defined(NGS_SIMD_DISABLED)
#define NGS_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace ngs::util::simd {
namespace {

// ---------------------------------------------------------------- scalar

std::size_t masked_run_filter_scalar(const std::uint64_t* codes,
                                     const std::uint32_t* order,
                                     std::size_t limit, std::uint64_t keep,
                                     std::uint64_t key, std::uint64_t query,
                                     int d, std::uint32_t* out,
                                     std::size_t* out_n) noexcept {
  std::size_t i = 0;
  std::size_t hits = 0;
  for (; i < limit; ++i) {
    const std::uint64_t code = codes[order[i]];
    if ((code & keep) != key) break;
    const int hd = hamming2(code, query);
    if (hd >= 1 && hd <= d) out[hits++] = order[i];
  }
  *out_n = hits;
  return i;
}

// ------------------------------------------------------------------ AVX2

#ifdef NGS_SIMD_HAVE_AVX2

/// Per-64-bit-lane popcount of (x ^ q reduced to one bit per 2-bit
/// symbol): nibble-LUT pshufb counts summed with psadbw.
__attribute__((target("avx2"))) inline __m256i hamming2_lanes(
    __m256i values, __m256i query) {
  const __m256i m55 = _mm256_set1_epi64x(0x5555555555555555LL);
  const __m256i low4 = _mm256_set1_epi8(0x0f);
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  __m256i x = _mm256_xor_si256(values, query);
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi64(x, 1)), m55);
  const __m256i lo = _mm256_and_si256(x, low4);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), low4);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) std::size_t masked_run_filter_avx2(
    const std::uint64_t* codes, const std::uint32_t* order, std::size_t limit,
    std::uint64_t keep, std::uint64_t key, std::uint64_t query, int d,
    std::uint32_t* out, std::size_t* out_n) noexcept {
  const __m256i keepv = _mm256_set1_epi64x(static_cast<long long>(keep));
  const __m256i keyv = _mm256_set1_epi64x(static_cast<long long>(key));
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(query));
  std::size_t i = 0;
  std::size_t hits = 0;
  // Full 4-wide blocks while the whole block continues the run; every
  // gathered index is a valid spectrum position regardless of where the
  // run actually ends, so over-reading a partial block is safe — it just
  // drops us to the scalar tail.
  for (; i + 4 <= limit; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(order + i));
    const __m256i values = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(codes), idx, 8);
    const __m256i eq =
        _mm256_cmpeq_epi64(_mm256_and_si256(values, keepv), keyv);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(eq)) != 0xf) break;
    alignas(32) std::uint64_t sums[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(sums),
                       hamming2_lanes(values, q));
    for (int lane = 0; lane < 4; ++lane) {
      const auto hd = static_cast<int>(sums[lane]);
      if (hd >= 1 && hd <= d) out[hits++] = order[i + static_cast<std::size_t>(lane)];
    }
  }
  std::size_t tail_hits = 0;
  const std::size_t consumed = masked_run_filter_scalar(
      codes, order + i, limit - i, keep, key, query, d, out + hits,
      &tail_hits);
  *out_n = hits + tail_hits;
  return i + consumed;
}

#endif  // NGS_SIMD_HAVE_AVX2

// ------------------------------------------------------------------ NEON

#ifdef NGS_SIMD_HAVE_NEON

inline int hamming2_neon_pair(uint64x2_t values, uint64x2_t query,
                              int* hd1) noexcept {
  const uint64x2_t m55 = vdupq_n_u64(0x5555555555555555ULL);
  uint64x2_t x = veorq_u64(values, query);
  x = vandq_u64(vorrq_u64(x, vshrq_n_u64(x, 1)), m55);
  const uint8x16_t counts = vcntq_u8(vreinterpretq_u8_u64(x));
  const std::uint64_t lo =
      vaddlv_u8(vget_low_u8(counts));
  const std::uint64_t hi = vaddlv_u8(vget_high_u8(counts));
  *hd1 = static_cast<int>(hi);
  return static_cast<int>(lo);
}

std::size_t masked_run_filter_neon(const std::uint64_t* codes,
                                   const std::uint32_t* order,
                                   std::size_t limit, std::uint64_t keep,
                                   std::uint64_t key, std::uint64_t query,
                                   int d, std::uint32_t* out,
                                   std::size_t* out_n) noexcept {
  const uint64x2_t keepv = vdupq_n_u64(keep);
  const uint64x2_t keyv = vdupq_n_u64(key);
  const uint64x2_t q = vdupq_n_u64(query);
  std::size_t i = 0;
  std::size_t hits = 0;
  for (; i + 2 <= limit; i += 2) {
    std::uint64_t pair[2] = {codes[order[i]], codes[order[i + 1]]};
    const uint64x2_t values = vld1q_u64(pair);
    const uint64x2_t eq = vceqq_u64(vandq_u64(values, keepv), keyv);
    if (vgetq_lane_u64(eq, 0) != ~std::uint64_t{0} ||
        vgetq_lane_u64(eq, 1) != ~std::uint64_t{0}) {
      break;
    }
    int hd1 = 0;
    const int hd0 = hamming2_neon_pair(values, q, &hd1);
    if (hd0 >= 1 && hd0 <= d) out[hits++] = order[i];
    if (hd1 >= 1 && hd1 <= d) out[hits++] = order[i + 1];
  }
  std::size_t tail_hits = 0;
  const std::size_t consumed = masked_run_filter_scalar(
      codes, order + i, limit - i, keep, key, query, d, out + hits,
      &tail_hits);
  *out_n = hits + tail_hits;
  return i + consumed;
}

#endif  // NGS_SIMD_HAVE_NEON

// -------------------------------------------------------------- dispatch

using MaskedRunFn = std::size_t (*)(const std::uint64_t*, const std::uint32_t*,
                                    std::size_t, std::uint64_t, std::uint64_t,
                                    std::uint64_t, int, std::uint32_t*,
                                    std::size_t*) noexcept;

struct Kernels {
  Level level;
  MaskedRunFn masked_run_filter;
};

constexpr Kernels kScalarKernels{Level::kScalar, masked_run_filter_scalar};
#ifdef NGS_SIMD_HAVE_AVX2
constexpr Kernels kAvx2Kernels{Level::kAVX2, masked_run_filter_avx2};
#endif
#ifdef NGS_SIMD_HAVE_NEON
constexpr Kernels kNeonKernels{Level::kNEON, masked_run_filter_neon};
#endif

const Kernels* kernels_for(Level level) noexcept {
  switch (level) {
#ifdef NGS_SIMD_HAVE_AVX2
    case Level::kAVX2:
      if (supported(Level::kAVX2)) return &kAvx2Kernels;
      break;
#endif
#ifdef NGS_SIMD_HAVE_NEON
    case Level::kNEON:
      if (supported(Level::kNEON)) return &kNeonKernels;
      break;
#endif
    default:
      break;
  }
  return &kScalarKernels;
}

Level parse_env_level(const char* value) noexcept {
  if (value == nullptr || std::strcmp(value, "auto") == 0) {
    // Best supported level.
    if (supported(Level::kAVX2)) return Level::kAVX2;
    if (supported(Level::kNEON)) return Level::kNEON;
    return Level::kScalar;
  }
  if (std::strcmp(value, "avx2") == 0) return Level::kAVX2;
  if (std::strcmp(value, "neon") == 0) return Level::kNEON;
  // "scalar", "off", and anything unrecognized pin the portable path.
  return Level::kScalar;
}

std::atomic<const Kernels*> g_kernels{nullptr};

const Kernels* resolve() noexcept {
  const Kernels* existing = g_kernels.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  const Kernels* chosen = kernels_for(parse_env_level(std::getenv("NGS_SIMD")));
  // A concurrent first call may have stored already; either store wins —
  // both derive from the same environment, so the result is identical.
  g_kernels.store(chosen, std::memory_order_release);
  return chosen;
}

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kAVX2:
      return "avx2";
    case Level::kNEON:
      return "neon";
    default:
      return "scalar";
  }
}

bool supported(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAVX2:
#ifdef NGS_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kNEON:
#ifdef NGS_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

Level active() noexcept { return resolve()->level; }

void force_level(Level level) noexcept {
  g_kernels.store(kernels_for(level), std::memory_order_release);
}

std::size_t masked_run_filter(const std::uint64_t* codes,
                              const std::uint32_t* order, std::size_t limit,
                              std::uint64_t keep, std::uint64_t key,
                              std::uint64_t query, int d, std::uint32_t* out,
                              std::size_t* out_n) noexcept {
  return resolve()->masked_run_filter(codes, order, limit, keep, key, query, d,
                                      out, out_n);
}

}  // namespace ngs::util::simd
