#pragma once
// Retrieval of the d-neighborhood N^d of a kmer within the spectrum —
// the central data-structure question of Sec. 2.3. Two exact strategies:
//
// 1. CandidateEnumerator: enumerate the complete d-neighborhood N^dc
//    (sum_{e<=d} C(k,e)3^e candidates) and binary-search each in the
//    sorted spectrum. O(C(k,d) 4^d log |R^k|) per query, zero extra
//    memory.
//
// 2. MaskedSortIndex: the paper's replica structure. Split the k
//    positions into c > d chunks; for each of the C(c,d) chunk subsets,
//    keep the spectrum order sorted by the code with those chunks masked
//    to zero. Any kmer within Hamming distance d differs in at most d
//    positions, which fall inside at most d chunks, so it collides with
//    the query in at least one replica. A query is C(c,d) binary searches
//    plus a Hamming filter over the collision runs; with typical spectrum
//    densities each run is O(1), giving the paper's ~constant expected
//    time per neighbor.
//
//    The same replicas yield every edge of G_H without a query: every
//    d-neighbour of a kmer shares a collision run with it, so
//    for_each_run_pair walks a replica's runs in order and tests the
//    pairs inside each run. HammingGraph builds the graph that way.
//
// Both expose template visitor overloads only — every caller (the graph
// build's run walk, the benches, the tests) instantiates the visitor
// inline with no std::function dispatch or capture allocation — plus
// caller-supplied scratch overloads so batch loops reuse one buffer per
// worker. bench_ablation_neighborhood measures the trade-off between the
// two strategies.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "seq/kmer.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

/// Scans the collision run order[0..n) while (codes[order[i]] & keep) ==
/// key, appending to `out` every order[i] whose code lies within Hamming
/// distance [1, d] of `query`. Returns the number of entries consumed
/// (the run length, capped at n). This is MaskedSortIndex's per-replica
/// filter; the run continuation test and the distance test share one
/// load of each code.
inline std::size_t masked_run_filter(const seq::KmerCode* codes,
                                     const std::uint32_t* order,
                                     std::size_t n, seq::KmerCode keep,
                                     seq::KmerCode key, seq::KmerCode query,
                                     int d, std::vector<std::uint32_t>& out) {
  std::size_t i = 0;
  for (; i < n; ++i) {
    const seq::KmerCode code = codes[order[i]];
    if ((code & keep) != key) break;
    if (code != query && seq::kmer_within(code, query, d)) {
      out.push_back(order[i]);
    }
  }
  return i;
}

/// Strategy 1: complete-neighborhood enumeration + binary search.
class CandidateEnumerator {
 public:
  explicit CandidateEnumerator(const KSpectrum& spectrum)
      : spectrum_(&spectrum) {}

  /// Visits every kmer in the spectrum within Hamming distance [1, d] of
  /// `code` (the kmer itself is not visited); the visitor receives
  /// (neighbor_code, spectrum_index). `scratch` holds the
  /// enumerated candidates; reuse one vector per worker to keep batch
  /// queries allocation-free. Thread-safe for concurrent callers with
  /// distinct scratch vectors.
  template <typename Visitor>
  void for_each_neighbor(seq::KmerCode code, int d, Visitor&& visit,
                         std::vector<seq::KmerCode>& scratch) const {
    scratch.clear();
    seq::enumerate_neighbors(code, spectrum_->k(), d, scratch);
    // Probe the spectrum in batches so independent binary-search descents
    // overlap their cache misses; visit order stays enumeration order.
    constexpr std::size_t kChunk = 64;
    std::int64_t idx[kChunk];
    for (std::size_t base = 0; base < scratch.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, scratch.size() - base);
      spectrum_->index_of_batch({scratch.data() + base, n}, {idx, n});
      for (std::size_t i = 0; i < n; ++i) {
        if (idx[i] >= 0) {
          visit(scratch[base + i], static_cast<std::size_t>(idx[i]));
        }
      }
    }
  }

  /// As above, using the enumerator's own scratch (single-threaded use).
  template <typename Visitor>
  void for_each_neighbor(seq::KmerCode code, int d, Visitor&& visit) const {
    for_each_neighbor(code, d, std::forward<Visitor>(visit), scratch_);
  }

 private:
  const KSpectrum* spectrum_;
  mutable std::vector<seq::KmerCode> scratch_;
};

/// Strategy 2: masked-sort replicas (Sec. 2.3, steps a-c).
class MaskedSortIndex {
 public:
  /// Builds C(c,d) sorted replicas over the spectrum, one pool task per
  /// replica (they are independent permutations), each sorted by stable
  /// LSD counting passes over its unmasked bits. Requires d < c <= k.
  /// nullptr pool = the shared default pool. Replica contents are
  /// deterministic regardless of thread count (ties in the masked key
  /// break by spectrum index).
  MaskedSortIndex(const KSpectrum& spectrum, int c, int d,
                  util::ThreadPool* pool = nullptr);

  int d() const noexcept { return d_; }
  std::size_t num_replicas() const noexcept { return replicas_.size(); }

  /// Replica r: the bits it masks, and the spectrum indices ordered by
  /// their code with those bits cleared, then by index.
  seq::KmerCode replica_mask(std::size_t r) const noexcept {
    return replicas_[r].mask;
  }
  std::span<const std::uint32_t> replica_order(std::size_t r) const noexcept {
    return replicas_[r].order;
  }

  /// Visits every spectrum kmer within Hamming distance [1, d] of `code`.
  /// Exact: each neighbor is reported exactly once. `hits` is dedup
  /// scratch (a neighbor whose mutated positions span fewer than d
  /// chunks collides in several replicas); reuse one vector per worker.
  /// Thread-safe for concurrent callers with distinct scratch vectors.
  template <typename Visitor>
  void for_each_neighbor(seq::KmerCode code, Visitor&& visit,
                         std::vector<std::uint32_t>& hits) const {
    hits.clear();
    const std::span<const seq::KmerCode> codes = spectrum_->codes();
    for (const auto& rep : replicas_) {
      const seq::KmerCode keep = ~rep.mask;
      const seq::KmerCode key = code & keep;
      auto cmp_lo = [&](std::uint32_t idx, seq::KmerCode value) {
        return (codes[idx] & keep) < value;
      };
      const auto off = static_cast<std::size_t>(
          std::lower_bound(rep.order.begin(), rep.order.end(), key, cmp_lo) -
          rep.order.begin());
      masked_run_filter(codes.data(), rep.order.data() + off,
                        rep.order.size() - off, keep, key, code, d_, hits);
    }
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    for (const std::uint32_t idx : hits) {
      visit(spectrum_->code_at(idx), idx);
    }
  }

  /// As above with call-local scratch.
  template <typename Visitor>
  void for_each_neighbor(seq::KmerCode code, Visitor&& visit) const {
    std::vector<std::uint32_t> hits;
    for_each_neighbor(code, std::forward<Visitor>(visit), hits);
  }

  /// Visits visit(i, j), i and j spectrum indices, for every pair of
  /// kmers within Hamming distance [1, d] whose collision run in replica
  /// `r` starts at a position in [lo, hi) of the replica's order. A pair
  /// collides in every replica that masks all the chunks it differs in;
  /// it is visited only in the first of them (its own chunks plus the
  /// lowest others), so the calls for every replica over a partition of
  /// [0, spectrum size) visit each pair exactly once. Within a replica a
  /// kmer lies in exactly one run, so calls on disjoint ranges of one
  /// replica touch disjoint kmers. `run` is scratch for one run's codes.
  template <typename Visitor>
  void for_each_run_pair(std::size_t r, std::size_t lo, std::size_t hi,
                         Visitor&& visit,
                         std::vector<seq::KmerCode>& run) const {
    const Replica& rep = replicas_[r];
    const seq::KmerCode keep = ~rep.mask;
    const seq::KmerCode* codes = spectrum_->codes().data();
    const std::uint32_t* order = rep.order.data();
    const std::size_t n = rep.order.size();
    std::size_t p = lo;
    if (p > 0 && p < hi) {
      // The run holding lo belongs to the range its start falls in.
      const seq::KmerCode before = codes[order[p - 1]] & keep;
      while (p < n && (codes[order[p]] & keep) == before) ++p;
    }
    while (p < hi) {
      const seq::KmerCode key = codes[order[p]] & keep;
      run.clear();
      for (std::size_t q = p; q < n; ++q) {
        const seq::KmerCode code = codes[order[q]];
        if ((code & keep) != key) break;
        run.push_back(code);
      }
      for (std::size_t a = 0; a + 1 < run.size(); ++a) {
        for (std::size_t b = a + 1; b < run.size(); ++b) {
          if (!seq::kmer_within(run[a], run[b], d_)) continue;
          const seq::KmerCode x = run[a] ^ run[b];
          if (std::all_of(rep.must_differ.begin(), rep.must_differ.end(),
                          [x](seq::KmerCode chunk) {
                            return (x & chunk) != 0;
                          })) {
            visit(order[p + a], order[p + b]);
          }
        }
      }
      p += run.size();
    }
  }

  /// Memory consumed by the replica permutations, in bytes.
  std::size_t memory_bytes() const noexcept;

 private:
  struct Replica {
    seq::KmerCode mask = 0;  // bits cleared before comparison
    std::vector<std::uint32_t> order;  // spectrum indices sorted by masked code
    // The masked chunks above the lowest unmasked one: a pair is this
    // replica's to visit only if it differs in each of them.
    std::vector<seq::KmerCode> must_differ;
  };

  const KSpectrum* spectrum_;
  int d_;
  std::vector<Replica> replicas_;
};

}  // namespace ngs::kspec
