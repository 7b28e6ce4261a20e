#pragma once
// The reference the spectrum-counting tests diff every build against.
// It shares no code with ChunkedSpectrumBuilder: each strand is
// extracted string by string (seq::extract_kmer_codes over the read and
// over its reverse-complemented string) and counted by the serial
// sort-and-run-length reference (kspec::serial_sort_and_count).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "kspec/radix.hpp"
#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "seq/read.hpp"

namespace ngs::ref {

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
  kspec::serial_sort_and_count(std::move(instances), codes, counts);
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

}  // namespace ngs::ref
