#include "kspec/radix.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fault/fault.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ngs::kspec {

namespace {

/// Inputs this small are insertion-sorted: their counting passes would
/// spend more on histograms than on codes.
constexpr std::size_t kInsertionSortMax = 32;
/// Widest LSD digit: a 256-entry histogram per pass.
constexpr int kMaxDigitBits = 8;
constexpr int kMaxPasses = (64 + kMaxDigitBits - 1) / kMaxDigitBits;

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
/// bits must be zero) with LSD counting passes that ping-pong between
/// `src` and `other`. One read fills every pass's histogram; a pass
/// whose digit is the same for every code is skipped. Returns whichever
/// of the two buffers holds the sorted codes.
seq::KmerCode* lsd_sort(seq::KmerCode* src, seq::KmerCode* other,
                        std::size_t n, int key_bits) noexcept {
  if (n <= kInsertionSortMax) {
    insertion_sort(src, src + n);
    return src;
  }
  const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  if (passes == 0) return src;  // no key bits: all codes are equal
  const int width = (key_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << width;
  const seq::KmerCode mask = radix - 1;
  // Only the first `radix` entries of the first `passes` rows are used;
  // zeroing just those keeps a short key from paying for all 16 KiB.
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

/// Run-length encodes the n ascending codes at `sorted` into the
/// outputs, sized once to the number of distinct codes.
void encode_runs(const seq::KmerCode* sorted, std::size_t n,
                 std::vector<seq::KmerCode>& out_codes,
                 std::vector<std::uint32_t>& out_counts) {
  std::size_t runs = n > 0;
  for (std::size_t i = 1; i < n; ++i) runs += sorted[i] != sorted[i - 1];
  out_codes.resize(runs);
  out_counts.resize(runs);
  std::size_t w = 0;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && sorted[j] == sorted[i]) ++j;
    out_codes[w] = sorted[i];
    out_counts[w] = static_cast<std::uint32_t>(j - i);
    ++w;
    i = j;
  }
}

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

void radix_sort_and_count(std::vector<seq::KmerCode>&& codes, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts) {
  std::vector<seq::KmerCode> input = std::move(codes);
  const std::size_t n = input.size();
  auto scratch = std::make_unique_for_overwrite<seq::KmerCode[]>(n);
  const seq::KmerCode* sorted =
      lsd_sort(input.data(), scratch.get(), n, 2 * k);
  // Keep only the buffer holding the sorted codes while the outputs are
  // allocated, so the peak stays at two arrays of n codes.
  if (sorted == scratch.get()) {
    input = std::vector<seq::KmerCode>();
  } else {
    scratch.reset();
  }
  encode_runs(sorted, n, out_codes, out_counts);
}

void radix_sort_and_count(std::span<seq::KmerCode> codes,
                          std::vector<seq::KmerCode>& scratch, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts) {
  const std::size_t n = codes.size();
  if (scratch.size() < n) scratch.resize(n);
  encode_runs(lsd_sort(codes.data(), scratch.data(), n, 2 * k), n, out_codes,
              out_counts);
}

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
