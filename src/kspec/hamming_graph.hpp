#pragma once
// The Hamming graph G_H over the k-spectrum (Sec. 2.3, phase 1b): vertex
// i is spectrum kmer i; an edge joins kmers within Hamming distance d.
// Stored as CSR adjacency over spectrum indices, each list ascending.
// Edges come from the MaskedSortIndex replicas, the paper's space/time
// trade-off: every d-neighbour of a kmer shares a collision run with it
// in some replica, so the build walks each replica's runs in order and
// tests the pairs inside them (MaskedSortIndex::for_each_run_pair), with
// no per-vertex search. The graph is then shared read-only by all
// correction threads.
//
// REDEEM builds the same graph for its misread neighborhoods N^dmax.

#include <cstdint>
#include <span>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "kspec/neighborhood.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::kspec {

class HammingGraph {
 public:
  /// An empty graph (no vertices), to be assigned a built one.
  HammingGraph() = default;

  /// Builds adjacency for all spectrum kmers within distance [1, d].
  /// `chunks` is the c of the masked-sort index (0 = auto: d + 3,
  /// clamped to k). The replica sorts and two walks over the replicas'
  /// runs, one counting degrees and one filling the lists, run on `pool`
  /// (nullptr = util::default_pool()); the CSR arrays are identical for
  /// every pool size.
  HammingGraph(const KSpectrum& spectrum, int d, int chunks = 0,
               util::ThreadPool* pool = nullptr);

  int d() const noexcept { return d_; }
  std::size_t num_vertices() const noexcept { return offsets_.size() - 1; }
  std::uint64_t num_edges() const noexcept { return neighbors_.size() / 2; }

  /// Spectrum indices adjacent to vertex i (hd in [1, d]).
  std::span<const std::uint32_t> neighbors(std::size_t i) const noexcept {
    return {neighbors_.data() + offsets_[i],
            neighbors_.data() + offsets_[i + 1]};
  }

 private:
  int d_ = 0;
  std::vector<std::uint64_t> offsets_{0};  // size = |spectrum| + 1
  std::vector<std::uint32_t> neighbors_;  // concatenated adjacency
};

}  // namespace ngs::kspec
