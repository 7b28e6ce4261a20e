#pragma once
// The references the spectrum- and tile-counting tests diff every build
// against. They share no code with ChunkedSpectrumBuilder: each strand
// is extracted string by string (seq::extract_kmer_codes over the read
// and over its reverse-complemented string) and counted by the serial
// sort-and-run-length reference (serial_sort_and_count below), or for
// tiles into a std::map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "kspec/tile_table.hpp"
#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "seq/read.hpp"
#include "sim/genome.hpp"
#include "util/rng.hpp"

namespace ngs::ref {

/// The reference count: one std::sort of the instance multiset and a
/// run-length loop. The radix kernel and the builder are diffed
/// against it.
inline void serial_sort_and_count(std::vector<seq::KmerCode>&& codes,
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

/// Every window free of non-ACGT bases of `reads`, and of their reverse
/// complements when `both_strands`, as a (code, count) spectrum.
inline kspec::KSpectrum reference_spectrum(const seq::ReadSet& reads, int k,
                                           bool both_strands) {
  std::vector<seq::KmerCode> instances;
  for (const auto& r : reads.reads) {
    seq::extract_kmer_codes(r.bases, k, instances);
    if (both_strands) {
      seq::extract_kmer_codes(seq::reverse_complement(r.bases), k, instances);
    }
  }
  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> counts;
  serial_sort_and_count(std::move(instances), codes, counts);
  return kspec::KSpectrum::from_sorted_counts(std::move(codes),
                                              std::move(counts), k);
}

/// Asserts equal k, instance totals, code arrays and count arrays.
inline void expect_byte_identical(const kspec::KSpectrum& a,
                                  const kspec::KSpectrum& b) {
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.total_instances(), b.total_instances());
  ASSERT_TRUE(std::equal(a.codes().begin(), a.codes().end(),
                         b.codes().begin(), b.codes().end()));
  ASSERT_TRUE(std::equal(a.counts().begin(), a.counts().end(),
                         b.counts().begin(), b.counts().end()));
}


// Reads for the parallel-builder oracles: lengths from 0 to 60 over a
// small random genome (so windows repeat), a sprinkle of N's and
// lowercase bases, random qualities on both sides of 20, and a few reads
// without qualities. Enough reads for several fill blocks and the
// radix path.
inline seq::ReadSet oracle_reads(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  const auto genome =
      sim::random_sequence(4000, {0.25, 0.25, 0.25, 0.25}, rng);
  seq::ReadSet set;
  for (std::size_t i = 0; i < n; ++i) {
    seq::Read r;
    r.id = std::to_string(i);
    const std::size_t len = rng.below(61);
    const std::size_t pos = rng.below(genome.size() - len);
    r.bases = genome.substr(pos, len);
    for (char& c : r.bases) {
      if (rng.bernoulli(0.01)) c = 'N';
      else if (rng.bernoulli(0.01)) c = static_cast<char>(c - 'A' + 'a');
    }
    if (!rng.bernoulli(0.05)) {
      for (std::size_t j = 0; j < len; ++j) {
        r.quality.push_back(static_cast<std::uint8_t>(rng.below(41)));
      }
    }
    set.reads.push_back(std::move(r));
  }
  return set;
}

// Oracle: every window of every strand, string by string. Oc counts all
// windows free of N's; Og only those whose every quality is >= Qc.
inline std::map<seq::KmerCode, kspec::TileTable::Counts> tile_oracle(
    const seq::ReadSet& reads, const kspec::TileParams& params) {
  std::map<seq::KmerCode, kspec::TileTable::Counts> expected;
  const auto tl = static_cast<std::size_t>(params.tile_length());
  for (const auto& r : reads.reads) {
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> strands = {
        {r.bases, r.quality}};
    if (params.both_strands) {
      strands.push_back({seq::reverse_complement(r.bases),
                         {r.quality.rbegin(), r.quality.rend()}});
    }
    for (const auto& [bases, quality] : strands) {
      for (std::size_t i = 0; i + tl <= bases.size(); ++i) {
        const auto code = seq::encode_kmer(bases.substr(i, tl));
        if (!code) continue;
        auto& counts = expected[*code];
        ++counts.oc;
        bool high = true;
        if (params.quality_cutoff > 0 && !quality.empty()) {
          for (std::size_t j = i; j < i + tl; ++j) {
            high = high && quality[j] >= params.quality_cutoff;
          }
        }
        counts.og += high;
      }
    }
  }
  return expected;
}

/// Asserts that `table` holds exactly the tiles of `expected`, in code
/// order, with their Oc and Og.
inline void expect_table_matches(
    const kspec::TileTable& table,
    const std::map<seq::KmerCode, kspec::TileTable::Counts>& expected) {
  ASSERT_EQ(table.size(), expected.size());
  std::size_t i = 0;
  for (const auto& [code, counts] : expected) {
    ASSERT_EQ(table.code_at(i), code) << i;
    ASSERT_EQ(table.counts_at(i).oc, counts.oc) << i;
    ASSERT_EQ(table.counts_at(i).og, counts.og) << i;
    ++i;
  }
}

}  // namespace ngs::ref
