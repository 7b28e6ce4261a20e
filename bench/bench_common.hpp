#pragma once
// Shared helpers for the bench binaries. Every bench regenerates one
// table or figure of the paper on synthetic data; sizes honor the
// NGS_BENCH_SCALE environment variable (default noted per bench) so the
// same binaries run heavier reproductions unchanged.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "sim/datasets.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ngs::bench {

/// NGS_BENCH_SCALE, or `default_scale` when it is unset. Any other text
/// than a positive decimal number exits 2 with a message naming the
/// variable, so a typo never runs the default scale.
inline double scale_or(double default_scale) {
  const char* s = std::getenv("NGS_BENCH_SCALE");
  if (s == nullptr) return default_scale;
  try {
    const double v = util::parse_double("NGS_BENCH_SCALE", s);
    if (v > 0.0) return v;
  } catch (const Error&) {
  }
  std::cerr << "NGS_BENCH_SCALE must be a positive number, got '" << s
            << "'\n";
  std::exit(2);
}

/// The exit of a bench run at a scale its datasets cannot take: the
/// simulator or a metric throws std::invalid_argument (repeat families
/// longer than the scaled-down genome, a genome shorter than its reads,
/// empty clusterings). One line on stderr and exit code 2, as for a
/// malformed NGS_BENCH_SCALE. Every bench's main is a function try block
/// with this as its handler.
inline int scale_too_small(const std::exception& e) {
  std::cerr << "NGS_BENCH_SCALE is too small for this bench: " << e.what()
            << "\n";
  return 2;
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

}  // namespace ngs::bench
