#include "kspec/hamming_graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/thread_pool.hpp"

namespace ngs::kspec {

HammingGraph::HammingGraph(const KSpectrum& spectrum, int d, int chunks,
                           util::ThreadPool* pool)
    : d_(d) {
  const int k = spectrum.k();
  int c = chunks == 0 ? std::min(k, d + 3) : chunks;
  c = std::max(c, d + 1);
  util::ThreadPool& workers = pool != nullptr ? *pool : util::default_pool();
  const MaskedSortIndex index(spectrum, c, d, &workers);
  const std::size_t n = spectrum.size();

  // Both passes walk one replica at a time, its order split into blocks
  // on the pool. A block takes the runs that start in it, and a kmer
  // sits in one run per replica, so each vertex's slot is written by one
  // task per replica and the wait between replicas orders the writes.
  const auto walk = [&](const auto& on_edge) {
    for (std::size_t r = 0; r < index.num_replicas(); ++r) {
      workers.parallel_for_blocked(0, n, [&](std::size_t lo, std::size_t hi) {
        std::vector<seq::KmerCode> run;
        index.for_each_run_pair(r, lo, hi, on_edge, run);
      });
    }
  };

  // Count pass: degrees into offsets_[i + 1], then one prefix sum.
  offsets_.assign(n + 1, 0);
  walk([this](std::uint32_t i, std::uint32_t j) {
    ++offsets_[i + 1];
    ++offsets_[j + 1];
  });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  // Fill pass: offsets_[i] is vertex i's cursor and ends at its list's
  // end, the next list's start, so shifting the array by one restores
  // the offsets. Each list is then sorted into vertex order.
  neighbors_.resize(offsets_[n]);
  walk([this](std::uint32_t i, std::uint32_t j) {
    neighbors_[offsets_[i]++] = j;
    neighbors_[offsets_[j]++] = i;
  });
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
  workers.parallel_for_blocked(0, n, [this](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::sort(neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
                neighbors_.begin() +
                    static_cast<std::ptrdiff_t>(offsets_[i + 1]));
    }
  });
}

}  // namespace ngs::kspec
