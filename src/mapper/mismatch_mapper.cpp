#include "mapper/mismatch_mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"

namespace ngs::mapper {

namespace {

/// Mismatching bases between `genome` [pos, pos + read.size()) and
/// `read`, counted 32 bases at a time; stops once the count passes `cap`.
/// Ambiguous bases compare as 'A' on both sides.
int count_mismatches(const seq::PackedSeq& genome, std::size_t pos,
                     const seq::PackedSeq& read, int cap) noexcept {
  int mm = 0;
  for (std::size_t done = 0; done < read.size() && mm <= cap; done += 32) {
    const int len =
        static_cast<int>(std::min<std::size_t>(32, read.size() - done));
    mm += seq::kmer_hamming(genome.window_raw(pos + done, len),
                            read.window_raw(done, len));
  }
  return mm;
}

}  // namespace

MismatchMapper::MismatchMapper(std::string_view genome, int seed_length)
    : seed_length_(std::clamp(seed_length, 6, 16)) {
  genome_.assign(genome);
  const std::size_t q = static_cast<std::size_t>(seed_length_);
  if (genome.size() < q) {
    throw std::invalid_argument("MismatchMapper: genome shorter than seed");
  }
  const std::size_t buckets = std::size_t{1} << (2 * q);
  const std::size_t n = genome.size() - q + 1;

  // Counting-sort layout of genome positions by their seed value.
  std::vector<std::uint32_t> counts(buckets + 1, 0);
  std::vector<std::pair<seq::KmerCode, std::uint32_t>> grams;
  grams.reserve(n);
  seq::extract_kmers(genome, seed_length_, grams);
  for (const auto& [code, pos] : grams) {
    (void)pos;
    ++counts[code + 1];
  }
  for (std::size_t i = 1; i <= buckets; ++i) counts[i] += counts[i - 1];
  bucket_start_ = counts;
  positions_.resize(grams.size());
  std::vector<std::uint32_t> cursor(bucket_start_.begin(),
                                    bucket_start_.end() - 1);
  for (const auto& [code, pos] : grams) {
    positions_[cursor[code]++] = pos;
  }
}

int MismatchMapper::seed_length_for(std::size_t read_length,
                                    int max_mismatches) {
  return static_cast<int>(read_length) / (max_mismatches + 1);
}

void MismatchMapper::collect_candidates(
    std::string_view oriented_read,
    std::vector<std::uint64_t>& candidates) const {
  const auto q = static_cast<std::size_t>(seed_length_);
  const std::size_t L = oriented_read.size();
  if (L < q) return;
  // Disjoint seeds at offsets 0, q, 2q, ... plus a final seed flush with
  // the read end so the tail is covered.
  std::vector<std::size_t> offsets;
  for (std::size_t off = 0; off + q <= L; off += q) offsets.push_back(off);
  if (offsets.empty() || offsets.back() + q < L) offsets.push_back(L - q);

  for (const std::size_t off : offsets) {
    const auto code = seq::encode_kmer(oriented_read.substr(off, q));
    if (!code) continue;  // seed spans an ambiguous base
    const std::uint32_t lo = bucket_start_[*code];
    const std::uint32_t hi = bucket_start_[*code + 1];
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::uint64_t p = positions_[i];
      if (p >= off && p - off + L <= genome_.size()) {
        candidates.push_back(p - off);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
}

std::vector<Hit> MismatchMapper::map_all(std::string_view read, int max_mm,
                                         std::size_t max_hits) const {
  std::vector<Hit> hits;
  std::vector<std::uint64_t> candidates;
  const std::string rc = seq::reverse_complement(read);
  seq::PackedSeq packed;

  for (const bool reverse : {false, true}) {
    const std::string_view oriented = reverse ? std::string_view(rc) : read;
    candidates.clear();
    collect_candidates(oriented, candidates);
    packed.assign(oriented);
    for (const std::uint64_t pos : candidates) {
      const int mm = count_mismatches(genome_, pos, packed, max_mm);
      if (mm <= max_mm) {
        hits.push_back(Hit{pos, reverse, mm});
        if (hits.size() >= max_hits) return hits;
      }
    }
  }
  return hits;
}

MapResult MismatchMapper::classify(std::string_view read, int max_mm) const {
  const auto hits = map_all(read, max_mm, 64);
  if (hits.empty()) return {MapClass::kUnmapped, {}};
  const auto best = std::min_element(
      hits.begin(), hits.end(),
      [](const Hit& a, const Hit& b) { return a.mismatches < b.mismatches; });
  std::size_t ties = 0;
  for (const auto& h : hits) ties += (h.mismatches == best->mismatches);
  return {ties == 1 ? MapClass::kUnique : MapClass::kAmbiguous, *best};
}

MappingStats map_read_set(const MismatchMapper& mapper,
                          const seq::ReadSet& reads, int max_mm) {
  MappingStats stats;
  for (const auto& r : reads.reads) {
    const auto result = mapper.classify(r.bases, max_mm);
    ++stats.total;
    switch (result.cls) {
      case MapClass::kUnique: ++stats.unique; break;
      case MapClass::kAmbiguous: ++stats.ambiguous; break;
      case MapClass::kUnmapped: ++stats.unmapped; break;
    }
  }
  return stats;
}

sim::ErrorModel estimate_error_model(const MismatchMapper& mapper,
                                     std::string_view genome,
                                     const seq::ReadSet& reads, int max_mm) {
  std::size_t max_len = 0;
  for (const auto& r : reads.reads) max_len = std::max(max_len, r.length());
  std::vector<std::array<std::array<std::uint64_t, 4>, 4>> counts(
      max_len, {{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}});

  for (const auto& r : reads.reads) {
    const auto result = mapper.classify(r.bases, max_mm);
    if (result.cls != MapClass::kUnique) continue;
    const auto& hit = result.best;
    const std::size_t L = r.length();
    for (std::size_t i = 0; i < L; ++i) {
      const char read_base = r.bases[i];
      if (!seq::is_acgt(read_base)) continue;
      // Genome base in read orientation: for reverse hits, read position i
      // sequenced the complement of genome position pos + L - 1 - i.
      char true_base;
      if (!hit.reverse) {
        true_base = genome[hit.pos + i];
      } else {
        true_base = seq::complement_base(genome[hit.pos + L - 1 - i]);
      }
      if (!seq::is_acgt(true_base)) continue;
      ++counts[i][seq::base_to_code(true_base)][seq::base_to_code(read_base)];
    }
  }
  return sim::ErrorModel::from_counts(counts);
}

}  // namespace ngs::mapper
