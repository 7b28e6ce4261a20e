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

  // Vertices are queried in chunks, `slots` chunks per round, one pool
  // task per chunk. Slot s keeps its adjacency and dedup buffers across
  // rounds, so no task holds more than one chunk's edges. Tasks write
  // each vertex's degree into offsets_; the calling thread appends the
  // round's chunks in vertex order, so the CSR arrays come out identical
  // to a serial build, and one prefix sum turns degrees into offsets.
  constexpr std::size_t kChunk = 512;
  const std::size_t n = spectrum.size();
  const std::size_t slots = workers.size() * 8;
  struct Slot {
    std::vector<std::uint32_t> adjacency;
    std::vector<std::uint32_t> hits;
  };
  std::vector<Slot> slot(slots);
  offsets_.assign(n + 1, 0);
  for (std::size_t round = 0; round < n; round += kChunk * slots) {
    const std::size_t used =
        std::min(slots, (n - round + kChunk - 1) / kChunk);
    workers.parallel_for(0, used, [&](std::size_t s) {
      auto& adjacency = slot[s].adjacency;
      adjacency.clear();
      const std::size_t lo = round + s * kChunk;
      const std::size_t hi = std::min(n, lo + kChunk);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t before = adjacency.size();
        index.for_each_neighbor(
            spectrum.code_at(i),
            [&adjacency](seq::KmerCode, std::size_t j) {
              adjacency.push_back(static_cast<std::uint32_t>(j));
            },
            slot[s].hits);
        offsets_[i + 1] = adjacency.size() - before;
      }
    });
    for (std::size_t s = 0; s < used; ++s) {
      neighbors_.insert(neighbors_.end(), slot[s].adjacency.begin(),
                        slot[s].adjacency.end());
    }
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
}

}  // namespace ngs::kspec
