#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>

#include "kspec/chunked_builder.hpp"
#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "kspec/neighborhood.hpp"
#include "kspec/radix.hpp"
#include "kspec/tile_table.hpp"
#include "seq/alphabet.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "spectrum_reference.hpp"

namespace {

using namespace ngs;
using kspec::KSpectrum;
using ref::expect_byte_identical;
using ref::reference_spectrum;

seq::ReadSet tiny_reads() {
  seq::ReadSet set;
  set.reads.push_back({"a", "ACGTACGT", {}});
  set.reads.push_back({"b", "ACGTACGT", {}});
  set.reads.push_back({"c", "CGTACGTA", {}});
  return set;
}

TEST(KSpectrum, CountsSingleStrand) {
  const auto spec = KSpectrum::build(tiny_reads(), 4, /*both_strands=*/false);
  // "ACGTACGT" contributes ACGT (x2... per read), CGTA, GTAC, TACG, ACGT.
  const auto acgt = seq::encode_kmer("ACGT").value();
  // Two copies of read a/b: each has ACGT twice; read c has ACGT once.
  EXPECT_EQ(spec.count(acgt), 2u * 2u + 1u);
  EXPECT_EQ(spec.count(seq::encode_kmer("AAAA").value()), 0u);
  EXPECT_FALSE(spec.contains(seq::encode_kmer("AAAA").value()));
}

TEST(KSpectrum, BothStrandsAddsReverseComplements) {
  seq::ReadSet set;
  set.reads.push_back({"a", "AACC", {}});
  const auto spec = KSpectrum::build(set, 4, /*both_strands=*/true);
  EXPECT_TRUE(spec.contains(seq::encode_kmer("AACC").value()));
  EXPECT_TRUE(spec.contains(seq::encode_kmer("GGTT").value()));
  EXPECT_EQ(spec.total_instances(), 2u);
}

TEST(KSpectrum, SortedAndIndexable) {
  util::Rng rng(1);
  const auto genome = sim::random_sequence(5000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto spec = KSpectrum::build_from_sequence(genome, 10);
  for (std::size_t i = 1; i < spec.size(); ++i) {
    ASSERT_LT(spec.code_at(i - 1), spec.code_at(i));
  }
  for (std::size_t i = 0; i < spec.size(); i += 97) {
    EXPECT_EQ(spec.index_of(spec.code_at(i)), static_cast<std::int64_t>(i));
  }
}

seq::ReadSet simulated_reads(std::uint64_t seed, std::size_t genome_len) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = genome_len;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.02);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 20.0;
  return sim::simulate_reads(genome.sequence, model, cfg, rng).reads;
}

/// One builder run over `reads` on `pool`, flushing every `batch`
/// instances.
KSpectrum build_on(const seq::ReadSet& reads, int k, bool both,
                   util::ThreadPool& pool, std::size_t batch = 1 << 20) {
  kspec::ChunkedSpectrumBuilder builder(k, both, batch, &pool);
  builder.add_read_batch(reads.reads);
  return builder.finish();
}

TEST(RadixBuild, ByteIdenticalToSerialAcrossThreadCounts) {
  const auto reads = simulated_reads(11, 15000);
  for (const bool both : {false, true}) {
    const auto reference = reference_spectrum(reads, 13, both);
    expect_byte_identical(KSpectrum::build(reads, 13, both), reference);
    for (const std::size_t threads : {1ul, 2ul, 3ul, 8ul}) {
      util::ThreadPool pool(threads);
      // One batch, and batches small enough to merge many runs.
      for (const std::size_t batch : {std::size_t{1} << 20,
                                      std::size_t{4096}}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " batch=" << batch
                                          << " both=" << both);
        expect_byte_identical(build_on(reads, 13, both, pool, batch),
                              reference);
      }
    }
  }
}

TEST(RadixBuild, DegenerateInputs) {
  seq::ReadSet empty;
  seq::ReadSet short_read;  // shorter than k: zero windows
  short_read.reads.push_back({"s", "ACGT", {}});
  seq::ReadSet one;
  one.reads.push_back({"a", "ACGTACGTACGTACGT", {}});
  seq::ReadSet dup;  // every instance identical: a single fat bucket
  for (int i = 0; i < 64; ++i) dup.reads.push_back({"d", "AAAAAAAAAAAAA", {}});

  for (const std::size_t threads : {1ul, 2ul, 3ul, 8ul}) {
    util::ThreadPool pool(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    for (const auto* reads : {&empty, &short_read, &one}) {
      expect_byte_identical(build_on(*reads, 13, true, pool),
                            reference_spectrum(*reads, 13, true));
    }
    const auto none = build_on(short_read, 13, true, pool);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.total_instances(), 0u);
    const auto dups = build_on(dup, 13, false, pool);
    ASSERT_EQ(dups.size(), 1u);
    EXPECT_EQ(dups.count_at(0), 64u);
    expect_byte_identical(dups, reference_spectrum(dup, 13, false));
  }
}

TEST(RadixBuild, ExternalPoolAndSortOnlyEntryPoint) {
  // The lanes and the spill bins call the kernel on the workers of a
  // pool the caller owns, each on its own buffers: three workers count
  // six inputs at once through both entry points.
  util::ThreadPool pool(3);
  util::Rng rng(99);
  const seq::KmerCode mask = (seq::KmerCode{1} << 26) - 1;
  std::vector<std::vector<seq::KmerCode>> inputs(6);
  for (auto& codes : inputs) {
    for (int i = 0; i < 50000; ++i) codes.push_back(rng() & mask);
  }
  struct Counted {
    std::vector<seq::KmerCode> codes;
    std::vector<std::uint32_t> counts;
  };
  std::vector<Counted> owning(inputs.size());
  std::vector<Counted> borrowed(inputs.size());
  pool.parallel_for(0, inputs.size(), [&](std::size_t i) {
    kspec::radix_sort_and_count(std::vector<seq::KmerCode>(inputs[i]), 13,
                                owning[i].codes, owning[i].counts);
    auto buffer = inputs[i];
    std::vector<seq::KmerCode> scratch;
    kspec::radix_sort_and_count(std::span<seq::KmerCode>(buffer), scratch, 13,
                                borrowed[i].codes, borrowed[i].counts);
  });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Counted expected;
    ref::serial_sort_and_count(std::move(inputs[i]), expected.codes,
                               expected.counts);
    ASSERT_EQ(owning[i].codes, expected.codes) << i;
    ASSERT_EQ(owning[i].counts, expected.counts) << i;
    ASSERT_EQ(borrowed[i].codes, expected.codes) << i;
    ASSERT_EQ(borrowed[i].counts, expected.counts) << i;
  }
}

/// Instance multisets of one shape: `size` codes of a 2k-bit key.
std::vector<seq::KmerCode> shaped_codes(const std::string& shape, int k,
                                        std::size_t size, util::Rng& rng) {
  const seq::KmerCode mask =
      k == 32 ? ~seq::KmerCode{0} : (seq::KmerCode{1} << (2 * k)) - 1;
  std::vector<seq::KmerCode> codes(size);
  if (shape == "uniform") {
    for (auto& c : codes) c = rng() & mask;
  } else if (shape == "duplicates") {  // 16 distinct codes
    std::vector<seq::KmerCode> pool(16);
    for (auto& c : pool) c = rng() & mask;
    for (auto& c : codes) c = pool[rng() % pool.size()];
  } else if (shape == "equal") {
    std::fill(codes.begin(), codes.end(), rng() & mask);
  } else {  // "prefix": one top-6-bit prefix, like a spill bin
    const int low = 2 * k - std::min(6, 2 * k);
    const seq::KmerCode prefix = (rng() & mask) >> low << low;
    const seq::KmerCode low_mask = (seq::KmerCode{1} << low) - 1;
    for (auto& c : codes) c = prefix | (rng() & low_mask);
  }
  return codes;
}

TEST(RadixBuild, LsdKernelMatchesSerialAcrossKeyWidths) {
  util::Rng rng(2024);
  std::vector<seq::KmerCode> scratch;  // reused, so often larger than n
  for (int k = 1; k <= 32; ++k) {
    for (const std::size_t size :
         {0ul, 1ul, 63ul, 64ul, 65ul, 8191ul, 8192ul, 100000ul}) {
      for (const std::string shape :
           {"uniform", "duplicates", "equal", "prefix"}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " size=" << size << " shape=" << shape);
        const auto codes = shaped_codes(shape, k, size, rng);
        std::vector<seq::KmerCode> expected_codes;
        std::vector<std::uint32_t> expected_counts;
        ref::serial_sort_and_count(std::vector<seq::KmerCode>(codes),
                                   expected_codes, expected_counts);
        std::vector<seq::KmerCode> out_codes;
        std::vector<std::uint32_t> out_counts;
        kspec::radix_sort_and_count(std::vector<seq::KmerCode>(codes), k,
                                    out_codes, out_counts);
        ASSERT_EQ(out_codes, expected_codes);
        ASSERT_EQ(out_counts, expected_counts);
        // The caller-owned form the lanes run, on a kept scratch.
        auto buffer = codes;
        kspec::radix_sort_and_count(std::span<seq::KmerCode>(buffer),
                                    scratch, k, out_codes, out_counts);
        ASSERT_EQ(out_codes, expected_codes);
        ASSERT_EQ(out_counts, expected_counts);
      }
    }
  }
}

TEST(PrefixIndex, DisabledIndexReportsZeroWidth) {
  const auto spec = KSpectrum::from_codes(
      {seq::encode_kmer("ACGT").value(), seq::encode_kmer("TTTT").value()}, 4);
  // Tiny spectrum: the auto heuristic leaves the index off.
  EXPECT_EQ(spec.prefix_index_bits(), 0);
  EXPECT_TRUE(spec.bucket_starts().empty());
  EXPECT_TRUE(spec.contains(seq::encode_kmer("TTTT").value()));
}

TEST(Neighborhood, EnumeratorFindsPlantedNeighbors) {
  std::vector<seq::KmerCode> codes;
  const auto base = seq::encode_kmer("ACGTACGTAC").value();
  codes.push_back(base);
  const auto n1 = seq::kmer_with_base(base, 10, 3, 0);  // 1 mutation
  const auto n2 = seq::kmer_with_base(n1, 10, 7, 1);    // 2 mutations
  codes.push_back(n1);
  codes.push_back(n2);
  codes.push_back(seq::encode_kmer("TTTTTTTTTT").value());
  const auto spec = KSpectrum::from_codes(codes, 10);

  kspec::CandidateEnumerator enumerator(spec);
  std::set<seq::KmerCode> found;
  enumerator.for_each_neighbor(base, 1,
                               [&](seq::KmerCode c, std::size_t) {
                                 found.insert(c);
                               });
  EXPECT_EQ(found, std::set<seq::KmerCode>{n1});
  found.clear();
  enumerator.for_each_neighbor(base, 2,
                               [&](seq::KmerCode c, std::size_t) {
                                 found.insert(c);
                               });
  EXPECT_EQ(found, (std::set<seq::KmerCode>{n1, n2}));
}

// `bases` random k-mers, each with `mutants` copies carrying one or two
// substitutions (planted mutation clusters), so neighbourhoods are
// nonempty at any k.
std::vector<seq::KmerCode> clustered_codes(util::Rng& rng, int k, int bases,
                                           int mutants) {
  const seq::KmerCode mask =
      k == 32 ? ~seq::KmerCode{0} : ((seq::KmerCode{1} << (2 * k)) - 1);
  std::vector<seq::KmerCode> codes;
  for (int i = 0; i < bases; ++i) {
    const seq::KmerCode base = rng() & mask;
    codes.push_back(base);
    for (int m = 0; m < mutants; ++m) {
      seq::KmerCode mut = base;
      for (int e = 0; e <= static_cast<int>(rng.below(2)); ++e) {
        mut = seq::kmer_with_base(
            mut, k, static_cast<int>(rng.below(static_cast<std::uint64_t>(k))),
            static_cast<std::uint8_t>(rng.below(4)));
      }
      codes.push_back(mut);
    }
  }
  return codes;
}

struct MaskedIndexCase {
  int k;
  int c;
  int d;
};

class MaskedIndexEquivalence
    : public ::testing::TestWithParam<MaskedIndexCase> {};

TEST_P(MaskedIndexEquivalence, MatchesEnumeratorOnRandomSpectra) {
  const auto [k, c, d] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(k * 100 + c * 10 + d));
  const auto spec = KSpectrum::from_codes(clustered_codes(rng, k, 300, 3), k);
  const kspec::CandidateEnumerator enumerator(spec);
  const kspec::MaskedSortIndex index(spec, c, d);

  for (std::size_t i = 0; i < spec.size(); i += 7) {
    const auto code = spec.code_at(i);
    std::set<seq::KmerCode> expect, got;
    enumerator.for_each_neighbor(code, d,
                                 [&](seq::KmerCode x, std::size_t) {
                                   expect.insert(x);
                                 });
    index.for_each_neighbor(code, [&](seq::KmerCode x, std::size_t) {
      got.insert(x);
    });
    ASSERT_EQ(got, expect) << "k=" << k << " c=" << c << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaskedIndexEquivalence,
    ::testing::Values(MaskedIndexCase{8, 4, 1}, MaskedIndexCase{12, 4, 1},
                      MaskedIndexCase{12, 6, 2}, MaskedIndexCase{13, 5, 2},
                      MaskedIndexCase{16, 4, 1}, MaskedIndexCase{16, 8, 2}));

// Each replica's radix order against the comparator sort it replaces:
// by masked code, ties by spectrum index. Clustered spectra make long
// runs of equal masked codes, so tie order is exercised at every k.
TEST(MaskedSortIndex, RadixOrderMatchesComparatorSort) {
  util::Rng rng(2024);
  for (const int k : {2, 3, 5, 8, 10, 13, 17, 24, 31, 32}) {
    const auto spec = KSpectrum::from_codes(clustered_codes(rng, k, 60, 4), k);
    for (const int d : {1, 2}) {
      for (int c = d + 1; c <= k; ++c) {
        const kspec::MaskedSortIndex index(spec, c, d);
        for (std::size_t r = 0; r < index.num_replicas(); ++r) {
          const seq::KmerCode keep = ~index.replica_mask(r);
          std::vector<std::uint32_t> expected(spec.size());
          std::iota(expected.begin(), expected.end(), 0u);
          std::sort(expected.begin(), expected.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      const auto ma = spec.code_at(a) & keep;
                      const auto mb = spec.code_at(b) & keep;
                      return ma != mb ? ma < mb : a < b;
                    });
          const auto got = index.replica_order(r);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                                 expected.end()))
              << "k=" << k << " c=" << c << " d=" << d << " replica " << r;
        }
      }
    }
  }
}

TEST(MaskedSortIndex, RejectsBadParameters) {
  const auto spec = KSpectrum::from_codes(
      {seq::encode_kmer("ACGTACGT").value()}, 8);
  EXPECT_THROW(kspec::MaskedSortIndex(spec, 2, 2), std::invalid_argument);
  EXPECT_THROW(kspec::MaskedSortIndex(spec, 9, 1), std::invalid_argument);
}

// The per-replica collision-run filter against a plain scan with
// kmer_hamming: random code sets with two bases masked, queried with a
// code of the set or a one-base mutant of one.
TEST(MaskedSortIndex, MaskedRunFilterMatchesReferenceScan) {
  util::Rng rng(4242);
  constexpr int kK = 12;
  const seq::KmerCode mask = (seq::KmerCode{1} << (2 * kK)) - 1;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng.below(300);
    std::vector<seq::KmerCode> codes(n);
    for (auto& c : codes) c = rng() & mask;
    std::sort(codes.begin(), codes.end());
    const seq::KmerCode keep =
        ~(seq::KmerCode{0xf} << (2 * rng.below(kK - 1))) & mask;
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return (codes[a] & keep) < (codes[b] & keep);
                     });
    const seq::KmerCode query =
        codes[rng.below(n)] ^
        (rng.below(2) ? 0 : (seq::KmerCode{3} << (2 * rng.below(kK))));
    const seq::KmerCode key = query & keep;
    const int d = 1 + static_cast<int>(rng.below(2));
    // Reference: plain scan from the first masked match.
    std::size_t start = 0;
    while (start < n && (codes[order[start]] & keep) < key) ++start;
    std::vector<std::uint32_t> expect;
    std::size_t expect_consumed = 0;
    for (std::size_t i = start; i < n; ++i) {
      if ((codes[order[i]] & keep) != key) break;
      ++expect_consumed;
      const int hd = seq::kmer_hamming(codes[order[i]], query);
      if (hd >= 1 && hd <= d) expect.push_back(order[i]);
    }
    std::vector<std::uint32_t> got;
    const std::size_t consumed =
        kspec::masked_run_filter(codes.data(), order.data() + start,
                                 n - start, keep, key, query, d, got);
    ASSERT_EQ(consumed, expect_consumed) << "round " << round;
    ASSERT_EQ(got, expect) << "round " << round;
  }
}

// A collision run far longer than the ~10-entry runs of clustered
// spectra: at c = 2 the replica masking the last four bases puts all
// 256 k = 8 codes sharing the first four in one run, scanned whole by
// every query.
TEST(MaskedSortIndex, LongCollisionRunMatchesEnumerator) {
  const int k = 8;
  std::vector<seq::KmerCode> codes;
  const seq::KmerCode prefix = seq::encode_kmer("ACGT").value() << 8;
  for (seq::KmerCode low = 0; low < 256; ++low) codes.push_back(prefix | low);
  const auto spec = KSpectrum::from_codes(codes, k);
  const kspec::CandidateEnumerator enumerator(spec);
  const kspec::MaskedSortIndex index(spec, /*c=*/2, /*d=*/1);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    std::set<std::pair<seq::KmerCode, std::size_t>> expect, got;
    enumerator.for_each_neighbor(spec.code_at(i), 1,
                                 [&](seq::KmerCode x, std::size_t j) {
                                   expect.emplace(x, j);
                                 });
    index.for_each_neighbor(spec.code_at(i),
                            [&](seq::KmerCode x, std::size_t j) {
                              got.emplace(x, j);
                            });
    // One substitution in one of the four free bases: 4 x 3 neighbours.
    ASSERT_EQ(expect.size(), 12u) << "code " << i;
    ASSERT_EQ(got, expect) << "code " << i;
  }
}

TEST(HammingGraph, EdgesAreSymmetricAndBounded) {
  util::Rng rng(5);
  const auto genome =
      sim::random_sequence(3000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto spec = KSpectrum::build_from_sequence(genome, 11);
  const kspec::HammingGraph graph(spec, 1);
  EXPECT_EQ(graph.num_vertices(), spec.size());
  for (std::size_t i = 0; i < spec.size(); i += 13) {
    for (const std::uint32_t j : graph.neighbors(i)) {
      const int hd = seq::kmer_hamming(spec.code_at(i), spec.code_at(j));
      ASSERT_EQ(hd, 1);
      // Symmetry: i must appear in j's list.
      const auto back = graph.neighbors(j);
      ASSERT_NE(std::find(back.begin(), back.end(),
                          static_cast<std::uint32_t>(i)),
                back.end());
    }
  }
}

TEST(TileTable, CountsOccurrences) {
  seq::ReadSet set;
  set.reads.push_back({"a", "ACGTACGTACGT", {}});  // 12 bases
  kspec::TileParams params;
  params.k = 4;
  params.overlap = 0;  // tile length 8
  params.both_strands = false;
  const auto table = kspec::TileTable::build(set, params);
  const auto t = seq::encode_kmer("ACGTACGT").value();
  EXPECT_EQ(table.counts(t).oc, 2u);  // positions 0 and 4
  EXPECT_EQ(table.counts(t).og, 2u);  // no quality filter -> og == oc
  EXPECT_EQ(table.counts(seq::encode_kmer("AAAAAAAA").value()).oc, 0u);
}

TEST(TileTable, QualityFilterSeparatesOg) {
  seq::ReadSet set;
  seq::Read r;
  r.id = "a";
  r.bases = "ACGTACGTACGT";
  r.quality.assign(12, 40);
  r.quality[5] = 5;  // low-quality base inside tiles covering position 5
  set.reads = {r};
  kspec::TileParams params;
  params.k = 4;
  params.quality_cutoff = 20;
  params.both_strands = false;
  const auto table = kspec::TileTable::build(set, params);
  const auto t0 = seq::encode_kmer("ACGTACGT").value();
  // Tile at position 0 covers base 5 (low quality); tile at position 4
  // also covers base 5. Both instances of this tile are low quality.
  EXPECT_EQ(table.counts(t0).oc, 2u);
  EXPECT_EQ(table.counts(t0).og, 0u);
  // Tile at position 3..10 "TACGTACG" misses nothing... covers 3-10 incl 5.
  // The only windows avoiding base 5 start at >= 6: no full window fits
  // after 6? positions 3 and 4 remain; all cover 5. Verify og histogram
  // total matches distinct tiles.
  EXPECT_EQ(table.og_histogram().total(), table.size());
}

TEST(TileTable, OverlapConcatenation) {
  seq::ReadSet set;
  set.reads.push_back({"a", "ACGTACGTAC", {}});
  kspec::TileParams params;
  params.k = 4;
  params.overlap = 2;  // tile length 6
  params.both_strands = false;
  const auto table = kspec::TileTable::build(set, params);
  EXPECT_EQ(table.tile_length(), 6);
  EXPECT_GT(table.counts(seq::encode_kmer("ACGTAC").value()).oc, 0u);
}

TEST(TileTable, RejectsInvalidParams) {
  seq::ReadSet set;
  kspec::TileParams params;
  params.k = 20;
  params.overlap = 2;  // tile length 38 > 32
  EXPECT_THROW(kspec::TileTable::build(set, params), std::invalid_argument);
}

TEST(TileTable, BothStrandsCountRevcompTiles) {
  seq::ReadSet set;
  set.reads.push_back({"a", "AACCGGTT", {}});
  kspec::TileParams params;
  params.k = 4;
  params.both_strands = true;
  const auto table = kspec::TileTable::build(set, params);
  // "AACCGGTT" is its own reverse complement, so its single 8-base tile
  // counts twice.
  EXPECT_EQ(table.counts(seq::encode_kmer("AACCGGTT").value()).oc, 2u);
}

std::vector<std::unique_ptr<util::ThreadPool>> oracle_pools() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const std::size_t n : {1, 2, 4}) {
    pools.push_back(std::make_unique<util::ThreadPool>(n));
  }
  return pools;
}

TEST(TileTable, ParallelBuildMatchesMapOracle) {
  const auto reads = ref::oracle_reads(41, 6000);
  const auto pools = oracle_pools();
  struct Case {
    int k, overlap, quality_cutoff;
    bool both_strands;
  };
  for (const Case c : {Case{6, 0, 20, true}, Case{6, 3, 20, true},
                       Case{8, 2, 0, true}, Case{5, 1, 20, false},
                       Case{16, 0, 20, true}}) {
    kspec::TileParams params;
    params.k = c.k;
    params.overlap = c.overlap;
    params.quality_cutoff = c.quality_cutoff;
    params.both_strands = c.both_strands;
    const auto expected = ref::tile_oracle(reads, params);
    for (const auto& pool : pools) {
      SCOPED_TRACE(::testing::Message()
                   << "k=" << c.k << " l=" << c.overlap << " Qc="
                   << c.quality_cutoff << " both=" << c.both_strands
                   << " pool=" << pool->size());
      ref::expect_table_matches(
          kspec::TileTable::build(reads, params, pool.get()), expected);
    }
  }
}

TEST(TileTable, ParallelBuildOfEmptyAndShortReads) {
  kspec::TileParams params;
  params.k = 6;
  seq::ReadSet short_reads;  // every read shorter than the 12-base tile
  short_reads.reads.push_back({"a", "ACGTACGTACG", {}});
  short_reads.reads.push_back({"b", "", {}});
  for (const auto& pool : oracle_pools()) {
    EXPECT_EQ(kspec::TileTable::build({}, params, pool.get()).size(), 0u);
    EXPECT_EQ(kspec::TileTable::build(short_reads, params, pool.get()).size(),
              0u);
  }
}

// The CSR arrays of G_H from all pairs, in vertex order.
struct Csr {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> neighbors;
};

Csr brute_force_graph(const KSpectrum& spec, int d) {
  Csr csr;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    for (std::size_t j = 0; j < spec.size(); ++j) {
      const int hd = seq::kmer_hamming(spec.code_at(i), spec.code_at(j));
      if (hd >= 1 && hd <= d) {
        csr.neighbors.push_back(static_cast<std::uint32_t>(j));
      }
    }
    csr.offsets.push_back(csr.neighbors.size());
  }
  return csr;
}

// Builds G_H at (d, chunks) on every pool and checks both CSR arrays
// against the brute-force ones, entry for entry.
void expect_graph_matches(const KSpectrum& spec, int d, int chunks,
                          const Csr& expect) {
  for (const auto& pool : oracle_pools()) {
    SCOPED_TRACE(::testing::Message() << "k=" << spec.k() << " d=" << d
                                      << " c=" << chunks
                                      << " pool=" << pool->size());
    const kspec::HammingGraph graph(spec, d, chunks, pool.get());
    ASSERT_EQ(graph.num_vertices(), spec.size());
    ASSERT_EQ(graph.num_edges(), expect.neighbors.size() / 2);
    if (spec.empty()) continue;
    const std::uint32_t* base = graph.neighbors(0).data();
    for (std::size_t i = 0; i < spec.size(); ++i) {
      const auto adj = graph.neighbors(i);
      ASSERT_EQ(static_cast<std::uint64_t>(adj.data() - base),
                expect.offsets[i]);
      ASSERT_TRUE(std::equal(adj.begin(), adj.end(),
                             expect.neighbors.begin() +
                                 static_cast<std::ptrdiff_t>(expect.offsets[i]),
                             expect.neighbors.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     expect.offsets[i + 1])))
          << i;
    }
  }
}

TEST(HammingGraph, ParallelBuildMatchesBruteForce) {
  util::Rng rng(43);
  {
    // Sparse k = 8 spectrum (~7 % of the codes) at the automatic c, at
    // c = d + 1 (few wide chunks, long runs) and at c = k (one base per
    // chunk), up to d = 3.
    const int k = 8;
    std::vector<seq::KmerCode> codes;
    for (int i = 0; i < 5000; ++i) {
      codes.push_back(rng.below(std::uint64_t{1} << (2 * k)));
    }
    const auto spec = KSpectrum::from_codes(codes, k);
    for (const int d : {1, 2, 3}) {
      const Csr expect = brute_force_graph(spec, d);
      for (const int c : {0, d + 1, k}) expect_graph_matches(spec, d, c, expect);
    }
  }
  {
    // Dense: ~40 % of the 4^6 codes, as the k = 10 spectrum of a deep
    // run is.
    const int k = 6;
    std::vector<seq::KmerCode> codes;
    for (seq::KmerCode code = 0; code < (seq::KmerCode{1} << (2 * k)); ++code) {
      if (rng.below(5) < 2) codes.push_back(code);
    }
    const auto spec = KSpectrum::from_codes(codes, k);
    ASSERT_GE(spec.size() * 10, (std::size_t{1} << (2 * k)) * 3);
    for (const int d : {1, 2, 3}) {
      const Csr expect = brute_force_graph(spec, d);
      for (const int c : {0, d + 1}) expect_graph_matches(spec, d, c, expect);
    }
  }
  {
    // k = 32: the codes fill all 64 bits.
    const auto spec = KSpectrum::from_codes(clustered_codes(rng, 32, 300, 3), 32);
    for (const int d : {1, 2}) {
      const Csr expect = brute_force_graph(spec, d);
      for (const int c : {0, d + 1}) expect_graph_matches(spec, d, c, expect);
    }
  }
  {
    // One collision run longer than a task block: at c = 2 the replica
    // masking the last four bases puts all 256 codes sharing the first
    // four in one run, and a pool of p threads cuts the order into 3p
    // blocks of under 256 entries.
    const int k = 8;
    std::vector<seq::KmerCode> codes;
    const seq::KmerCode prefix = seq::encode_kmer("ACGT").value() << 8;
    for (seq::KmerCode low = 0; low < 256; ++low) codes.push_back(prefix | low);
    for (int i = 0; i < 100; ++i) codes.push_back(rng.below(1u << 16));
    const auto spec = KSpectrum::from_codes(codes, k);
    ASSERT_LT(spec.size(), 3u * 256u);
    for (const int d : {1, 2}) {
      expect_graph_matches(spec, d, d + 1, brute_force_graph(spec, d));
    }
  }
  // Empty and one-code spectra: no edges.
  for (const auto& spec :
       {KSpectrum::from_codes({}, 8),
        KSpectrum::from_codes({seq::encode_kmer("ACGTACGT").value()}, 8)}) {
    expect_graph_matches(spec, 1, 0, brute_force_graph(spec, 1));
  }
}

// The replica walk behind HammingGraph: over all replicas and any cut of
// the order into ranges, down to one entry per range, every pair within
// distance [1, d] is visited exactly once.
TEST(MaskedSortIndex, RunPairsVisitEachPairOnce) {
  util::Rng rng(61);
  const int k = 8;
  const auto spec = KSpectrum::from_codes(clustered_codes(rng, k, 60, 6), k);
  for (const int d : {1, 2, 3}) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> expect;
    for (std::uint32_t i = 0; i < spec.size(); ++i) {
      for (std::uint32_t j = i + 1; j < spec.size(); ++j) {
        const int hd = seq::kmer_hamming(spec.code_at(i), spec.code_at(j));
        if (hd >= 1 && hd <= d) expect.emplace_back(i, j);
      }
    }
    ASSERT_FALSE(expect.empty());
    for (int c = d + 1; c <= k; ++c) {
      const kspec::MaskedSortIndex index(spec, c, d);
      for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                      spec.size()}) {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
        std::vector<seq::KmerCode> run;
        for (std::size_t r = 0; r < index.num_replicas(); ++r) {
          for (std::size_t lo = 0; lo < spec.size(); lo += block) {
            index.for_each_run_pair(
                r, lo, std::min(spec.size(), lo + block),
                [&](std::uint32_t i, std::uint32_t j) {
                  got.emplace_back(std::min(i, j), std::max(i, j));
                },
                run);
          }
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expect) << "d=" << d << " c=" << c
                               << " block=" << block;
      }
    }
  }
}

TEST(KSpectrum, ParallelBuildIdenticalOnReadsWithAmbiguousBases) {
  const auto reads = ref::oracle_reads(47, 6000);
  const auto pools = oracle_pools();
  for (const bool both : {false, true}) {
    const auto reference = reference_spectrum(reads, 11, both);
    expect_byte_identical(KSpectrum::build(reads, 11, both), reference);
    for (const auto& pool : pools) {
      SCOPED_TRACE(::testing::Message() << "both=" << both
                                        << " pool=" << pool->size());
      expect_byte_identical(build_on(reads, 11, both, *pool, 4096),
                            reference);
    }
  }
}

TEST(KSpectrum, SequenceAndCodeBuildsMatchReference) {
  // A sequence longer than one builder batch, with N runs and lowercase
  // bases, so windows restart mid-sequence.
  util::Rng rng(61);
  auto genome = sim::random_sequence(700000, {0.25, 0.25, 0.25, 0.25}, rng);
  for (std::size_t i = rng.below(1000); i < genome.size();
       i += 500 + rng.below(1000)) {
    genome[i] = 'N';
    if (i + 1 < genome.size()) genome[i + 1] = 'N';
    if (i + 40 < genome.size()) genome[i + 40] = 'a';
  }
  seq::ReadSet as_read;
  as_read.reads.push_back({"genome", genome, {}});
  for (const bool both : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "both=" << both);
    const auto reference = reference_spectrum(as_read, 15, both);
    expect_byte_identical(KSpectrum::build_from_sequence(genome, 15, both),
                          reference);
    // from_codes counts the same instance multiset in any order.
    std::vector<seq::KmerCode> instances;
    seq::extract_kmer_codes(genome, 15, instances);
    if (both) {
      seq::extract_kmer_codes(seq::reverse_complement(genome), 15, instances);
    }
    std::reverse(instances.begin(), instances.end());
    expect_byte_identical(KSpectrum::from_codes(std::move(instances), 15),
                          reference);
  }
}

}  // namespace
