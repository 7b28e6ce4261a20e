#pragma once
// Shared helpers for the bench binaries. Every bench regenerates one
// table or figure of the paper on synthetic data; sizes honor the
// NGS_BENCH_SCALE environment variable (default noted per bench) so the
// same binaries run heavier reproductions unchanged.

#include <cstdio>
#include <iostream>
#include <string>

#include "kspec/chunked_builder.hpp"
#include "sim/datasets.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ngs::bench {

inline double scale_or(double default_scale) {
  const char* s = std::getenv("NGS_BENCH_SCALE");
  if (s == nullptr) return default_scale;
  const double v = std::atof(s);
  return v > 0.0 ? v : default_scale;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "==== " << title << " ====\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

/// Memory delta helper for the "Memory (GB)" columns: peak RSS is
/// process-wide, so benches report the peak after each method ran.
inline std::string mem_gb() {
  return util::Table::fixed(util::to_gib(util::peak_rss_bytes()), 2);
}

/// The k-spectrum of `reads` (both strands) counted as pipeline pass 1
/// counts it: blocks on one lane per thread of `pool`, which also runs
/// the final merge.
inline kspec::KSpectrum count_on_workers(const seq::ReadSet& reads, int k,
                                         util::ThreadPool& pool) {
  const seq::ReadPass pass = seq::pass_over(reads, pool.size());
  kspec::ChunkedSpectrumBuilder builder(k, true, 1 << 20, &pool, {},
                                        pass.workers);
  pass([&builder](std::span<const seq::Read> batch, std::size_t lane) {
    return builder.count(batch, lane);
  });
  return builder.finish();
}

}  // namespace ngs::bench
