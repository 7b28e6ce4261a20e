#include "kspec/kspectrum.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "kspec/radix.hpp"
#include "kspec/read_windows.hpp"
#include "seq/alphabet.hpp"
#include "util/batch_search.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec {

namespace {

/// Auto prefix-index width: ~32 codes per bucket, capped so the offset
/// table stays a few MB and never exceeds the key width.
int auto_prefix_bits(std::size_t size, int k) noexcept {
  if (size < 64) return 0;
  return std::clamp(static_cast<int>(std::bit_width(size / 32)), 1,
                    std::min(2 * k, 20));
}

/// The pool a build runs on: nullptr for the serial path (threads == 1),
/// else the override, a dedicated pool of `threads` workers (held in
/// `own`), or the shared default pool.
util::ThreadPool* construction_pool(const SpectrumBuildOptions& options,
                                    std::optional<util::ThreadPool>& own) {
  if (options.threads == 1) return nullptr;
  if (options.pool != nullptr) return options.pool;
  if (options.threads > 1) return &own.emplace(options.threads);
  return &util::default_pool();
}

}  // namespace

void KSpectrum::rebind_owned() noexcept {
  external_ = false;
  codes_ = codes_vec_;
  counts_ = counts_vec_;
  bucket_starts_ = bucket_starts_vec_;
  keepalive_.reset();
}

void KSpectrum::move_from(KSpectrum&& other) noexcept {
  k_ = other.k_;
  total_ = other.total_;
  prefix_bits_ = other.prefix_bits_;
  external_ = other.external_;
  // Whether each view pointed at the owned vectors must be decided
  // before the vectors move (std::vector moves preserve the buffer, but
  // re-deriving the spans keeps this correct without relying on it).
  const bool codes_owned = !other.external_;
  const bool buckets_owned =
      other.bucket_starts_.data() == other.bucket_starts_vec_.data();
  codes_vec_ = std::move(other.codes_vec_);
  counts_vec_ = std::move(other.counts_vec_);
  bucket_starts_vec_ = std::move(other.bucket_starts_vec_);
  keepalive_ = std::move(other.keepalive_);
  codes_ = codes_owned ? std::span<const seq::KmerCode>(codes_vec_)
                       : other.codes_;
  counts_ = codes_owned ? std::span<const std::uint32_t>(counts_vec_)
                        : other.counts_;
  bucket_starts_ = buckets_owned
                       ? std::span<const std::uint64_t>(bucket_starts_vec_)
                       : other.bucket_starts_;
  shards_ = std::move(other.shards_);
  shard_starts_ = std::move(other.shard_starts_);
  shard_bits_ = other.shard_bits_;
  other.k_ = 0;
  other.total_ = 0;
  other.prefix_bits_ = 0;
  other.external_ = false;
  other.codes_ = {};
  other.counts_ = {};
  other.bucket_starts_ = {};
  other.keepalive_.reset();
  other.shards_.reset();
  other.shard_starts_.clear();
  other.shard_bits_ = 0;
}

KSpectrum::KSpectrum(KSpectrum&& other) noexcept { move_from(std::move(other)); }

KSpectrum& KSpectrum::operator=(KSpectrum&& other) noexcept {
  if (this != &other) move_from(std::move(other));
  return *this;
}

KSpectrum::KSpectrum(const KSpectrum& other) { *this = other; }

KSpectrum& KSpectrum::operator=(const KSpectrum& other) {
  if (this == &other) return *this;
  k_ = other.k_;
  total_ = other.total_;
  prefix_bits_ = other.prefix_bits_;
  external_ = other.external_;
  if (other.external_) {
    // Views are cheap to share: both copies alias the same external
    // memory and co-own it through the keepalive.
    codes_vec_.clear();
    counts_vec_.clear();
    codes_ = other.codes_;
    counts_ = other.counts_;
    keepalive_ = other.keepalive_;
  } else {
    codes_vec_ = other.codes_vec_;
    counts_vec_ = other.counts_vec_;
    codes_ = codes_vec_;
    counts_ = counts_vec_;
    keepalive_.reset();
  }
  if (other.bucket_starts_.data() == other.bucket_starts_vec_.data()) {
    bucket_starts_vec_ = other.bucket_starts_vec_;
    bucket_starts_ = bucket_starts_vec_;
  } else {
    bucket_starts_vec_.clear();
    bucket_starts_ = other.bucket_starts_;
  }
  // Sharded copies share the (immutable) shards.
  shards_ = other.shards_;
  shard_starts_ = other.shard_starts_;
  shard_bits_ = other.shard_bits_;
  return *this;
}

KSpectrum KSpectrum::from_instances(std::vector<seq::KmerCode> instances,
                                    int k,
                                    const SpectrumBuildOptions& options) {
  KSpectrum s;
  s.k_ = k;
  s.total_ = instances.size();
  std::optional<util::ThreadPool> own_pool;
  if (util::ThreadPool* pool = construction_pool(options, own_pool)) {
    RadixSortOptions radix;
    radix.radix_bits = options.radix_bits;
    radix.pool = pool;
    radix_sort_and_count(std::move(instances), k, s.codes_vec_, s.counts_vec_,
                         radix);
  } else {
    serial_sort_and_count(std::move(instances), s.codes_vec_, s.counts_vec_);
  }
  s.rebind_owned();
  s.rebuild_prefix_index(options.prefix_index_bits);
  return s;
}

KSpectrum KSpectrum::from_codes(std::vector<seq::KmerCode> codes, int k,
                                const SpectrumBuildOptions& options) {
  return from_instances(std::move(codes), k, options);
}

std::optional<std::string> KSpectrum::validate_sorted_counts(
    std::span<const seq::KmerCode> codes, std::span<const std::uint32_t> counts,
    int k) {
  const auto fail = [](std::size_t i, const char* what) {
    std::ostringstream os;
    os << what << " at index " << i;
    return os.str();
  };
  if (codes.size() != counts.size()) {
    std::ostringstream os;
    os << "codes/counts size mismatch (" << codes.size() << " vs "
       << counts.size() << ")";
    return os.str();
  }
  const seq::KmerCode max_code =
      k >= seq::kMaxK ? ~seq::KmerCode{0}
                      : (seq::KmerCode{1} << (2 * k)) - 1;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] > max_code) return fail(i, "code exceeds 2k-bit range");
    if (counts[i] == 0) return fail(i, "zero count");
    if (i > 0 && !(codes[i - 1] < codes[i])) {
      return fail(i, "codes not strictly ascending");
    }
  }
  return std::nullopt;
}

KSpectrum KSpectrum::from_sorted_counts(std::vector<seq::KmerCode> codes,
                                        std::vector<std::uint32_t> counts,
                                        int k, int prefix_index_bits) {
  if (codes.size() != counts.size()) {
    throw std::invalid_argument("from_sorted_counts: size mismatch");
  }
#ifndef NDEBUG
  if (const auto err = validate_sorted_counts(codes, counts, k)) {
    throw std::invalid_argument("from_sorted_counts: " + *err);
  }
#endif
  KSpectrum s;
  s.k_ = k;
  s.codes_vec_ = std::move(codes);
  s.counts_vec_ = std::move(counts);
  s.total_ = std::accumulate(s.counts_vec_.begin(), s.counts_vec_.end(),
                             std::uint64_t{0});
  s.rebind_owned();
  s.rebuild_prefix_index(prefix_index_bits);
  return s;
}

KSpectrum KSpectrum::adopt_external(std::span<const seq::KmerCode> codes,
                                    std::span<const std::uint32_t> counts,
                                    std::span<const std::uint64_t> bucket_starts,
                                    int k, std::uint64_t total, int prefix_bits,
                                    std::shared_ptr<const void> keepalive) {
  if (codes.size() != counts.size()) {
    throw std::invalid_argument("adopt_external: size mismatch");
  }
  if (prefix_bits > 0 &&
      bucket_starts.size() != (std::size_t{1} << prefix_bits) + 1) {
    throw std::invalid_argument(
        "adopt_external: bucket table size does not match prefix_bits");
  }
  KSpectrum s;
  s.k_ = k;
  s.total_ = total;
  s.external_ = true;
  s.codes_ = codes;
  s.counts_ = counts;
  s.bucket_starts_ = prefix_bits > 0 ? bucket_starts
                                     : std::span<const std::uint64_t>{};
  s.prefix_bits_ = prefix_bits > 0 ? prefix_bits : 0;
  s.keepalive_ = std::move(keepalive);
  return s;
}

KSpectrum KSpectrum::build(const seq::ReadSet& reads, int k,
                           bool both_strands,
                           const SpectrumBuildOptions& options) {
  // Blocks of reads fill slices of one instance array sized from the
  // exact window count, Σ max(0, len−k+1) per strand, on the same pool
  // that then sorts it.
  std::optional<util::ThreadPool> own_pool;
  util::ThreadPool* pool = construction_pool(options, own_pool);
  auto [instances] = detail::fill_windows<1>(
      reads, k, both_strands, pool,
      [&](const seq::Read& r, std::array<seq::KmerCode*, 1>& out) {
        detail::for_each_window(
            r.bases, k, [&](seq::KmerCode fwd, seq::KmerCode rc, std::size_t) {
              *out[0]++ = fwd;
              if (both_strands) *out[0]++ = rc;
            });
      });
  SpectrumBuildOptions sort = options;
  sort.pool = pool;
  return from_instances(std::move(instances), k, sort);
}

KSpectrum KSpectrum::build_from_sequence(std::string_view sequence, int k,
                                         bool both_strands,
                                         const SpectrumBuildOptions& options) {
  std::vector<seq::KmerCode> instances;
  instances.reserve(seq::max_kmer_windows(sequence.size(), k) *
                    (both_strands ? 2 : 1));
  seq::extract_kmer_codes(sequence, k, instances);
  if (both_strands) {
    const std::string rc = seq::reverse_complement(std::string(sequence));
    seq::extract_kmer_codes(rc, k, instances);
  }
  return from_instances(std::move(instances), k, options);
}

void KSpectrum::rebuild_prefix_index(int prefix_index_bits) {
  if (shard_bits_ > 0) return;  // shards carry their own bucket tables
  const int bits = prefix_index_bits < 0
                       ? auto_prefix_bits(codes_.size(), k_)
                       : std::min({prefix_index_bits, 2 * k_, 24});
  if (bits <= 0 || codes_.empty()) {
    prefix_bits_ = 0;
    bucket_starts_vec_.clear();
    bucket_starts_vec_.shrink_to_fit();
    bucket_starts_ = {};
    return;
  }
  prefix_bits_ = bits;
  const int shift = 2 * k_ - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  bucket_starts_vec_.assign(buckets + 1, 0);
  for (const seq::KmerCode code : codes_) {
    ++bucket_starts_vec_[(code >> shift) + 1];
  }
  for (std::size_t b = 1; b <= buckets; ++b) {
    bucket_starts_vec_[b] += bucket_starts_vec_[b - 1];
  }
  bucket_starts_ = bucket_starts_vec_;
}

std::int64_t KSpectrum::index_of(seq::KmerCode code) const {
  if (shard_bits_ > 0) return sharded_index_of(code);
  const seq::KmerCode* first = codes_.data();
  const seq::KmerCode* last = first + codes_.size();
  if (prefix_bits_ > 0) {
    const std::size_t b =
        static_cast<std::size_t>(code >> (2 * k_ - prefix_bits_));
    if (b + 1 >= bucket_starts_.size()) return -1;  // key out of range
    first = codes_.data() + bucket_starts_[b];
    last = codes_.data() + bucket_starts_[b + 1];
  }
  const auto* it = std::lower_bound(first, last, code);
  if (it == last || *it != code) return -1;
  return static_cast<std::int64_t>(it - codes_.data());
}

void KSpectrum::index_of_batch(std::span<const seq::KmerCode> probes,
                               std::span<std::int64_t> out) const {
  if (probes.size() != out.size()) {
    throw std::invalid_argument("index_of_batch: probes/out size mismatch");
  }
  if (shard_bits_ > 0) {
    sharded_index_of_batch(probes, out);
    return;
  }
  // Groups of kProbeGroup descents advance in lockstep (stack scratch
  // only); each probe is independent, so original order is preserved
  // with no pre-sort.
  for (std::size_t g = 0; g < probes.size(); g += util::kProbeGroup) {
    const std::size_t gn = std::min(util::kProbeGroup, probes.size() - g);
    std::uint64_t keys[util::kProbeGroup];
    std::size_t lo[util::kProbeGroup];
    std::size_t len[util::kProbeGroup];
    std::size_t hi[util::kProbeGroup];
    for (std::size_t j = 0; j < gn; ++j) {
      const seq::KmerCode code = probes[g + j];
      keys[j] = code;
      lo[j] = 0;
      hi[j] = codes_.size();
      if (prefix_bits_ > 0) {
        const std::size_t b =
            static_cast<std::size_t>(code >> (2 * k_ - prefix_bits_));
        if (b + 1 >= bucket_starts_.size()) {  // key out of range
          hi[j] = 0;
        } else {
          lo[j] = bucket_starts_[b];
          hi[j] = bucket_starts_[b + 1];
        }
      }
      len[j] = hi[j] - lo[j];
    }
    util::interleaved_lower_bound(codes_.data(), keys, lo, len, gn);
    for (std::size_t j = 0; j < gn; ++j) {
      const std::size_t r = lo[j];
      out[g + j] = (r < hi[j] && codes_[r] == keys[j])
                       ? static_cast<std::int64_t>(r)
                       : -1;
    }
  }
}

void KSpectrum::sharded_index_of_batch(std::span<const seq::KmerCode> probes,
                                       std::span<std::int64_t> out) const {
  // Sort probe indices by code so probes landing in the same shard are
  // consecutive; each touched shard then answers its group through its
  // own batch path. The scratch is on the heap: the O(n log n) sort
  // costs far more than its three allocations.
  const std::size_t n = probes.size();
  std::vector<std::uint32_t> ord(n);
  std::iota(ord.begin(), ord.end(), 0u);
  std::sort(ord.begin(), ord.end(), [&](std::uint32_t a, std::uint32_t b) {
    return probes[a] < probes[b];
  });
  std::vector<seq::KmerCode> group_codes;
  std::vector<std::int64_t> group_out;
  const int shift = 2 * k_ - shard_bits_;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t p = static_cast<std::size_t>(probes[ord[i]] >> shift);
    std::size_t j = i + 1;
    while (j < n && static_cast<std::size_t>(probes[ord[j]] >> shift) == p) {
      ++j;
    }
    if (p + 1 >= shard_starts_.size() || (*shards_)[p].empty()) {
      // Key out of range or empty bin.
      for (std::size_t t = i; t < j; ++t) out[ord[t]] = -1;
      i = j;
      continue;
    }
    group_codes.resize(j - i);
    group_out.resize(j - i);
    for (std::size_t t = i; t < j; ++t) group_codes[t - i] = probes[ord[t]];
    (*shards_)[p].index_of_batch(group_codes, group_out);
    const auto offset = static_cast<std::int64_t>(shard_starts_[p]);
    for (std::size_t t = i; t < j; ++t) {
      const std::int64_t local = group_out[t - i];
      out[ord[t]] = local < 0 ? -1 : offset + local;
    }
    i = j;
  }
}

KSpectrum KSpectrum::from_shards(std::vector<KSpectrum> shards,
                                 int shard_bits, int k) {
  if (shard_bits < 1 || shard_bits > std::min(2 * k, 24) ||
      shards.size() != std::size_t{1} << shard_bits) {
    throw std::invalid_argument("from_shards: shard table does not match "
                                "shard_bits");
  }
  KSpectrum s;
  s.k_ = k;
  s.shard_bits_ = shard_bits;
  s.shard_starts_.assign(shards.size() + 1, 0);
  for (std::size_t p = 0; p < shards.size(); ++p) {
    const KSpectrum& shard = shards[p];
    if (!shard.empty() && (shard.k() != k || shard.sharded())) {
      throw std::invalid_argument("from_shards: shard is not a k=" +
                                  std::to_string(k) + " flat spectrum");
    }
    s.shard_starts_[p + 1] = s.shard_starts_[p] + shard.size();
    s.total_ += shard.total_instances();
  }
  s.shards_ =
      std::make_shared<const std::vector<KSpectrum>>(std::move(shards));
  return s;
}

std::int64_t KSpectrum::sharded_index_of(seq::KmerCode code) const {
  const std::size_t p = static_cast<std::size_t>(code >> (2 * k_ - shard_bits_));
  if (p + 1 >= shard_starts_.size()) return -1;  // key out of range
  const std::int64_t local = (*shards_)[p].index_of(code);
  if (local < 0) return -1;
  return static_cast<std::int64_t>(shard_starts_[p]) + local;
}

std::uint32_t KSpectrum::sharded_count(seq::KmerCode code) const {
  const std::size_t p = static_cast<std::size_t>(code >> (2 * k_ - shard_bits_));
  if (p + 1 >= shard_starts_.size()) return 0;
  return (*shards_)[p].count(code);
}

std::pair<std::uint32_t, std::size_t> KSpectrum::locate(std::size_t i) const {
  if (i >= shard_starts_.back()) {
    throw std::out_of_range("KSpectrum: sharded index out of range");
  }
  // First shard whose start exceeds i; its predecessor holds i.
  const auto it = std::upper_bound(shard_starts_.begin(), shard_starts_.end(),
                                   static_cast<std::uint64_t>(i));
  const std::size_t p =
      static_cast<std::size_t>(it - shard_starts_.begin()) - 1;
  return {static_cast<std::uint32_t>(p),
          i - static_cast<std::size_t>(shard_starts_[p])};
}

seq::KmerCode KSpectrum::sharded_code_at(std::size_t i) const {
  const auto [p, local] = locate(i);
  return (*shards_)[p].code_at(local);
}

std::uint32_t KSpectrum::sharded_count_at(std::size_t i) const {
  const auto [p, local] = locate(i);
  return (*shards_)[p].count_at(local);
}

}  // namespace ngs::kspec
