#include "kspec/radix.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fault/fault.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ngs::kspec {

namespace {

/// Buckets this small are insertion-sorted: their counting passes would
/// spend more on histograms than on codes.
constexpr std::size_t kInsertionSortMax = 32;
/// Widest LSD digit: a 256-entry histogram per pass.
constexpr int kMaxDigitBits = 8;
constexpr int kMaxPasses = (64 + kMaxDigitBits - 1) / kMaxDigitBits;

/// LSD passes over `key_bits` bits of digits at most kMaxDigitBits wide.
int lsd_passes(int key_bits) noexcept {
  return (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
}

void insertion_sort(seq::KmerCode* first, seq::KmerCode* last) noexcept {
  if (first == last) return;
  for (seq::KmerCode* i = first + 1; i < last; ++i) {
    const seq::KmerCode code = *i;
    seq::KmerCode* j = i;
    for (; j > first && *(j - 1) > code; --j) *j = *(j - 1);
    *j = code;
  }
}

/// Sorts the n codes at `src` by their low `key_bits` bits (all higher
/// bits must be equal across them) with LSD counting passes that
/// ping-pong between `src` and `other`. One read fills every pass's
/// histogram; a pass whose digit is the same for every code is skipped.
/// Returns whichever of the two buffers holds the sorted codes.
seq::KmerCode* lsd_sort(seq::KmerCode* src, seq::KmerCode* other,
                        std::size_t n, int key_bits) noexcept {
  if (n <= kInsertionSortMax) {
    insertion_sort(src, src + n);
    return src;
  }
  const int passes = lsd_passes(key_bits);
  if (passes == 0) return src;  // no key bits left: all codes are equal
  const int width = (key_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << width;
  const seq::KmerCode mask = radix - 1;
  // Only the first `radix` entries of the first `passes` rows are used;
  // zeroing just those keeps a small bucket from paying for all 16 KiB.
  std::array<std::array<std::size_t, std::size_t{1} << kMaxDigitBits>,
             kMaxPasses>
      counts;
  for (int d = 0; d < passes; ++d) {
    std::fill_n(counts[d].begin(), radix, std::size_t{0});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const seq::KmerCode code = src[i];
    for (int d = 0; d < passes; ++d) ++counts[d][(code >> (d * width)) & mask];
  }
  for (int d = 0; d < passes; ++d) {
    const int shift = d * width;
    auto& cursor = counts[d];
    if (cursor[(src[0] >> shift) & mask] == n) continue;
    std::size_t running = 0;
    for (std::size_t q = 0; q < radix; ++q) {
      const std::size_t c = cursor[q];
      cursor[q] = running;
      running += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const seq::KmerCode code = src[i];
      other[cursor[(code >> shift) & mask]++] = code;
    }
    std::swap(src, other);
  }
  return src;
}

std::size_t count_runs(const seq::KmerCode* sorted, std::size_t n) noexcept {
  std::size_t runs = n > 0;
  for (std::size_t i = 1; i < n; ++i) runs += sorted[i] != sorted[i - 1];
  return runs;
}

/// Bucket q of a sorted partition is data[offsets[q], offsets[q + 1]),
/// ascending, with runs[q] distinct codes.
struct SortedBuckets {
  const seq::KmerCode* data = nullptr;
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> runs;
};

/// Sorts the n codes at `codes` with `scratch` (n codes) as the second
/// buffer. bits == 0 is one bucket on the calling thread. Otherwise a
/// stable two-pass counting partition by the top `bits` key bits
/// scatters `codes` into `scratch`, and each bucket is LSD-sorted on the
/// pool over the 2k - bits bits below its prefix, the input array being
/// the other buffer. A bucket that runs every pass ends in `home`; one
/// that skipped passes or was insertion-sorted is copied there if it
/// ended in the other buffer, so one pointer locates every bucket.
SortedBuckets sort_buckets(seq::KmerCode* codes, seq::KmerCode* scratch,
                           std::size_t n, int k, int bits,
                           util::ThreadPool* pool) {
  SortedBuckets out;
  if (bits == 0) {
    out.data = lsd_sort(codes, scratch, n, 2 * k);
    out.offsets = {0, n};
    out.runs = {count_runs(out.data, n)};
    return out;
  }
  const std::size_t buckets = std::size_t{1} << bits;
  const int shift = 2 * k - bits;

  // Pass 1: per-block histograms (blocks = contiguous input slices, one
  // task each), so the scatter below needs no atomics.
  const std::size_t num_blocks =
      std::min<std::size_t>(std::max<std::size_t>(1, pool->size() * 4),
                            std::max<std::size_t>(1, n / 4096));
  const std::size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<std::vector<std::size_t>> histograms(
      num_blocks, std::vector<std::size_t>(buckets, 0));
  pool->parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(n, lo + block);
    auto& h = histograms[b];
    for (std::size_t i = lo; i < hi; ++i) ++h[codes[i] >> shift];
  });

  // Exclusive prefix sums: offsets[bucket] plus each block's start within
  // its bucket. Block-major order within a bucket keeps the partition
  // stable (input order preserved), hence deterministic.
  out.offsets.assign(buckets + 1, 0);
  std::size_t running = 0;
  for (std::size_t q = 0; q < buckets; ++q) {
    out.offsets[q] = running;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::size_t c = histograms[b][q];
      histograms[b][q] = running;  // becomes this block's write cursor
      running += c;
    }
  }
  out.offsets[buckets] = running;

  // Pass 2: scatter. Each block owns disjoint write cursors.
  pool->parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(n, lo + block);
    auto& cursors = histograms[b];
    for (std::size_t i = lo; i < hi; ++i) {
      scratch[cursors[codes[i] >> shift]++] = codes[i];
    }
  });

  const int key_bits = 2 * k - bits;
  seq::KmerCode* const home = lsd_passes(key_bits) % 2 == 0 ? scratch : codes;
  out.data = home;
  out.runs.assign(buckets, 0);
  pool->parallel_for(0, buckets, [&](std::size_t q) {
    const std::size_t lo = out.offsets[q];
    const std::size_t size = out.offsets[q + 1] - lo;
    const seq::KmerCode* sorted =
        lsd_sort(scratch + lo, codes + lo, size, key_bits);
    if (sorted != home + lo) std::copy_n(sorted, size, home + lo);
    out.runs[q] = count_runs(home + lo, size);
  });
  return out;
}

/// Run-length encodes every bucket straight into its slice of the
/// outputs. A run never crosses a bucket boundary (equal codes share a
/// prefix).
void encode_runs(const SortedBuckets& sorted,
                 std::vector<seq::KmerCode>& out_codes,
                 std::vector<std::uint32_t>& out_counts,
                 util::ThreadPool* pool) {
  const std::size_t buckets = sorted.runs.size();
  std::vector<std::size_t> first(buckets + 1, 0);
  for (std::size_t q = 0; q < buckets; ++q) {
    first[q + 1] = first[q] + sorted.runs[q];
  }
  out_codes.resize(first[buckets]);
  out_counts.resize(first[buckets]);
  const auto encode = [&](std::size_t q) {
    const seq::KmerCode* data = sorted.data;
    const std::size_t hi = sorted.offsets[q + 1];
    std::size_t w = first[q];
    for (std::size_t i = sorted.offsets[q]; i < hi;) {
      std::size_t j = i + 1;
      while (j < hi && data[j] == data[i]) ++j;
      out_codes[w] = data[i];
      out_counts[w] = static_cast<std::uint32_t>(j - i);
      ++w;
      i = j;
    }
  };
  if (buckets == 1) {
    encode(0);
  } else {
    pool->parallel_for(0, buckets, encode);
  }
}

/// The radix width a run uses: the caller's, clamped to the key, or the
/// automatic choice.
int radix_bits_for(std::size_t n, int k, const RadixSortOptions& options) {
  return options.radix_bits < 0 ? choose_radix_bits(n, k)
                                : std::min(options.radix_bits, 2 * k);
}

util::ThreadPool* pool_for(int bits, const RadixSortOptions& options) {
  if (bits == 0) return nullptr;
  return options.pool != nullptr ? options.pool : &util::default_pool();
}

}  // namespace

int choose_radix_bits(std::size_t n, int k) noexcept {
  if (n < 8192) return 0;
  // Aim for ~8k codes per bucket, at least 4 bits and at most 14 or the
  // key width, so the per-block histograms (2^bits words each) stay
  // cheap. Not std::clamp: a 2-bit key (k = 1) puts the cap below 4.
  const int target = std::bit_width(n / 8192);
  return std::min(std::max(target, 4), std::min(2 * k, 14));
}

void serial_sort_and_count(std::vector<seq::KmerCode>&& codes,
                           std::vector<seq::KmerCode>& out_codes,
                           std::vector<std::uint32_t>& out_counts) {
  std::sort(codes.begin(), codes.end());
  out_codes.clear();
  out_counts.clear();
  for (std::size_t i = 0; i < codes.size();) {
    std::size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    out_codes.push_back(codes[i]);
    out_counts.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }
}

void radix_sort_and_count(std::vector<seq::KmerCode>&& codes, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts,
                          const RadixSortOptions& options) {
  std::vector<seq::KmerCode> input = std::move(codes);
  const std::size_t n = input.size();
  const int bits = radix_bits_for(n, k, options);
  util::ThreadPool* pool = pool_for(bits, options);
  auto scratch = std::make_unique_for_overwrite<seq::KmerCode[]>(n);
  const SortedBuckets sorted =
      sort_buckets(input.data(), scratch.get(), n, k, bits, pool);
  // Keep only the buffer holding the sorted codes while the outputs are
  // allocated, so the peak stays at two arrays of n codes.
  if (sorted.data == scratch.get()) {
    input = std::vector<seq::KmerCode>();
  } else {
    scratch.reset();
  }
  encode_runs(sorted, out_codes, out_counts, pool);
}

void radix_sort_and_count(std::span<seq::KmerCode> codes,
                          std::vector<seq::KmerCode>& scratch, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts,
                          const RadixSortOptions& options) {
  const std::size_t n = codes.size();
  if (scratch.size() < n) scratch.resize(n);
  const int bits = radix_bits_for(n, k, options);
  util::ThreadPool* pool = pool_for(bits, options);
  encode_runs(sort_buckets(codes.data(), scratch.data(), n, k, bits, pool),
              out_codes, out_counts, pool);
}

namespace {

/// Unique-per-process spill-file stem so concurrent builders (or a
/// crashed predecessor's leftovers) never collide in a shared spill dir.
std::string spill_stem(const std::string& dir) {
  static std::atomic<std::uint64_t> seq{0};
  std::string stem = dir;
  if (!stem.empty() && stem.back() != '/') stem += '/';
  stem += "ngs_spill_";
#if defined(__unix__) || defined(__APPLE__)
  stem += std::to_string(static_cast<long>(::getpid()));
  stem += '_';
#endif
  stem += std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  return stem;
}

}  // namespace

SpillPartitioner::SpillPartitioner(int k, int shard_bits, std::string dir)
    : k_(k),
      shard_bits_(shard_bits),
      shift_(2 * k - shard_bits),
      dir_(std::move(dir)) {
  if (shard_bits < 1 || shard_bits > 2 * k) {
    throw Error(ErrorKind::kInternal, fault::sites::kSpillWrite,
                "SpillPartitioner: shard_bits out of range");
  }
  bin_count_ = std::size_t{1} << shard_bits;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; the
  // first bin open fails with a clear message if the dir is unusable
  const std::string stem = spill_stem(dir_);
  bins_ = std::make_unique<Bin[]>(bin_count_);
  for (std::size_t b = 0; b < bin_count_; ++b) {
    bins_[b].path = stem + "_bin" + std::to_string(b) + ".spill";
  }
}

SpillPartitioner::~SpillPartitioner() {
  for (std::size_t b = 0; b < bin_count_; ++b) {
    bins_[b].file.reset();  // unlinks an uncommitted temp
    std::remove(bins_[b].path.c_str());
  }
}

void SpillPartitioner::append(Bin& bin, std::span<const seq::KmerCode> codes) {
  std::lock_guard<std::mutex> lock(bin.mutex);
  if (fault::should_fire(fault::sites::kSpillWrite)) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillWrite,
                bin.path + ": write failed: injected fault at " +
                    fault::sites::kSpillWrite);
  }
  if (bin.file == nullptr) {
    util::AtomicFileOptions options;
    options.error_site = fault::sites::kSpillWrite;
    bin.file = std::make_unique<util::AtomicFile>(bin.path, options);
  }
  bin.file->write(codes.data(), codes.size() * sizeof(seq::KmerCode));
  bin.instances += codes.size();
}

void SpillPartitioner::add(std::span<const seq::KmerCode> codes,
                           std::vector<seq::KmerCode>& scratch) {
  if (!writable_) {
    throw Error(ErrorKind::kInternal, fault::sites::kSpillWrite,
                "SpillPartitioner: add after close_writes");
  }
  // A stable counting partition by bin, so each bin's share is one
  // contiguous write.
  std::vector<std::size_t> cursor(bin_count_ + 1, 0);
  for (const seq::KmerCode code : codes) ++cursor[(code >> shift_) + 1];
  for (std::size_t b = 1; b <= bin_count_; ++b) cursor[b] += cursor[b - 1];
  if (scratch.size() < codes.size()) scratch.resize(codes.size());
  std::vector<std::size_t> first(cursor.begin(), cursor.end() - 1);
  for (const seq::KmerCode code : codes) {
    scratch[cursor[code >> shift_]++] = code;
  }
  for (std::size_t b = 0; b < bin_count_; ++b) {
    const std::size_t n = cursor[b] - first[b];
    if (n > 0) append(bins_[b], {scratch.data() + first[b], n});
  }
}

void SpillPartitioner::close_writes() {
  if (!writable_) return;
  writable_ = false;
  for (std::size_t b = 0; b < bin_count_; ++b) {
    if (bins_[b].file != nullptr) bins_[b].file->commit();
  }
}

std::size_t SpillPartitioner::nonempty_bins() const noexcept {
  std::size_t n = 0;
  for (std::size_t b = 0; b < bin_count_; ++b) n += bins_[b].instances > 0;
  return n;
}

std::uint64_t SpillPartitioner::spilled_bytes() const noexcept {
  std::uint64_t instances = 0;
  for (std::size_t b = 0; b < bin_count_; ++b) {
    instances += bins_[b].instances;
  }
  return instances * sizeof(seq::KmerCode);
}

std::vector<seq::KmerCode> SpillPartitioner::read_bin(std::size_t bin) const {
  if (writable_) {
    throw Error(ErrorKind::kInternal, fault::sites::kSpillRead,
                "SpillPartitioner: read_bin before close_writes");
  }
  const Bin& b = bins_[bin];
  std::vector<seq::KmerCode> codes;
  if (b.instances == 0) return codes;
  if (fault::should_fire(fault::sites::kSpillRead)) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillRead,
                b.path + ": read failed: injected fault at " +
                    fault::sites::kSpillRead);
  }
  std::FILE* f = std::fopen(b.path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillRead,
                b.path + ": open failed: " + std::strerror(errno));
  }
  codes.resize(static_cast<std::size_t>(b.instances));
  const std::size_t got =
      std::fread(codes.data(), sizeof(seq::KmerCode), codes.size(), f);
  std::fclose(f);
  if (got != codes.size()) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillRead,
                b.path + ": short read (spill bin truncated)");
  }
  return codes;
}

}  // namespace ngs::kspec
