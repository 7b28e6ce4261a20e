#include "kspec/kspectrum.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "kspec/chunked_builder.hpp"
#include "kspec/radix.hpp"
#include "util/batch_search.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec {

int KSpectrum::auto_prefix_bits(std::size_t size, int k) noexcept {
  if (size < 64) return 0;
  return std::clamp(static_cast<int>(std::bit_width(size / 32)), 1,
                    std::min(2 * k, 20));
}

void KSpectrum::bind_views(const KSpectrum& source) noexcept {
  if (external_) {
    codes_ = source.codes_;
    counts_ = source.counts_;
    bucket_starts_ = source.bucket_starts_;
  } else {
    codes_ = codes_vec_;
    counts_ = counts_vec_;
    bucket_starts_ = bucket_starts_vec_;
  }
}

void KSpectrum::move_from(KSpectrum&& other) noexcept {
  k_ = other.k_;
  total_ = other.total_;
  prefix_bits_ = other.prefix_bits_;
  external_ = other.external_;
  codes_vec_ = std::move(other.codes_vec_);
  counts_vec_ = std::move(other.counts_vec_);
  bucket_starts_vec_ = std::move(other.bucket_starts_vec_);
  keepalive_ = std::move(other.keepalive_);
  bind_views(other);
  other.k_ = 0;
  other.total_ = 0;
  other.prefix_bits_ = 0;
  other.external_ = false;
  other.codes_ = {};
  other.counts_ = {};
  other.bucket_starts_ = {};
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
  // An external view's vectors are empty: both copies alias the same
  // external memory and co-own it through the keepalive.
  codes_vec_ = other.codes_vec_;
  counts_vec_ = other.counts_vec_;
  bucket_starts_vec_ = other.bucket_starts_vec_;
  keepalive_ = other.keepalive_;
  bind_views(other);
  return *this;
}

KSpectrum KSpectrum::from_codes(std::vector<seq::KmerCode> codes, int k) {
  std::vector<seq::KmerCode> distinct;
  std::vector<std::uint32_t> counts;
  radix_sort_and_count(std::move(codes), k, distinct, counts);
  return from_sorted_counts(std::move(distinct), std::move(counts), k);
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
                                        int k) {
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
  s.build_prefix_index();
  s.bind_views(s);
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
                           bool both_strands) {
  const seq::ReadPass pass =
      seq::pass_over(reads, util::default_pool().size());
  ChunkedSpectrumBuilder builder(k, both_strands, 1 << 20, nullptr, {},
                                 pass.workers);
  pass([&builder](std::span<const seq::Read> batch, std::size_t lane) {
    return builder.count(batch, lane);
  });
  return builder.finish();
}

KSpectrum KSpectrum::build_from_sequence(std::string_view sequence, int k,
                                         bool both_strands) {
  ChunkedSpectrumBuilder builder(k, both_strands);
  builder.lane(0).add(sequence);
  return builder.finish();
}

void KSpectrum::build_prefix_index() {
  prefix_bits_ = auto_prefix_bits(codes_vec_.size(), k_);
  if (prefix_bits_ == 0) return;
  const int shift = 2 * k_ - prefix_bits_;
  const std::size_t buckets = std::size_t{1} << prefix_bits_;
  bucket_starts_vec_.assign(buckets + 1, 0);
  for (const seq::KmerCode code : codes_vec_) {
    ++bucket_starts_vec_[(code >> shift) + 1];
  }
  for (std::size_t b = 1; b <= buckets; ++b) {
    bucket_starts_vec_[b] += bucket_starts_vec_[b - 1];
  }
}

std::int64_t KSpectrum::index_of(seq::KmerCode code) const {
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
  for (std::size_t g = 0; g < probes.size(); g += util::kProbeGroup) {
    const std::size_t gn = std::min(util::kProbeGroup, probes.size() - g);
    std::size_t lb[util::kProbeGroup];
    lower_bound_batch(probes.subspan(g, gn), {lb, gn});
    for (std::size_t j = 0; j < gn; ++j) {
      out[g + j] = (lb[j] < codes_.size() && codes_[lb[j]] == probes[g + j])
                       ? static_cast<std::int64_t>(lb[j])
                       : -1;
    }
  }
}

void KSpectrum::lower_bound_batch(std::span<const seq::KmerCode> keys,
                                  std::span<std::size_t> out) const {
  if (keys.size() != out.size()) {
    throw std::invalid_argument("lower_bound_batch: keys/out size mismatch");
  }
  // Groups of kProbeGroup descents advance in lockstep (stack scratch
  // only); each key is independent, so original order is preserved with
  // no pre-sort. A bucket's lower bound is the global one: codes before
  // the bucket are smaller than the key, and the code at the bucket's
  // end (when the key passes every code in it) is in a later bucket,
  // hence larger.
  for (std::size_t g = 0; g < keys.size(); g += util::kProbeGroup) {
    const std::size_t gn = std::min(util::kProbeGroup, keys.size() - g);
    std::size_t len[util::kProbeGroup];
    std::size_t* lo = out.data() + g;
    for (std::size_t j = 0; j < gn; ++j) {
      lo[j] = 0;
      len[j] = codes_.size();
      if (prefix_bits_ > 0) {
        const std::size_t b =
            static_cast<std::size_t>(keys[g + j] >> (2 * k_ - prefix_bits_));
        if (b + 1 >= bucket_starts_.size()) {  // past the top bucket
          lo[j] = codes_.size();
          len[j] = 0;
        } else {
          lo[j] = bucket_starts_[b];
          len[j] = bucket_starts_[b + 1] - lo[j];
        }
      }
    }
    util::interleaved_lower_bound(codes_.data(), keys.data() + g, lo, len, gn);
  }
}

}  // namespace ngs::kspec
