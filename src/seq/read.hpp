#pragma once
// Read and ReadSet: the in-memory representation of a sequencing dataset.
//
// Quality scores are stored as raw Phred values (not ASCII-offset); the
// io module converts on the way in/out. For simulated data, ReadSet also
// carries the per-read ground truth (origin position, strand, error-free
// sequence) that the evaluation module consumes — this replaces the
// paper's RMAP-based approximate truth with exact truth.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace ngs::seq {

struct Read {
  std::string id;
  std::string bases;
  std::vector<std::uint8_t> quality;  // Phred scores; empty if unavailable

  std::size_t length() const noexcept { return bases.size(); }
};

/// Ground truth for one simulated read.
struct ReadTruth {
  std::uint64_t genome_pos = 0;  // 0-based origin on the forward strand
  bool reverse_strand = false;
  std::string true_bases;        // error-free read as sequenced (read orientation)
};

struct ReadSet {
  std::vector<Read> reads;
  std::vector<ReadTruth> truth;  // parallel to reads; empty for real data

  bool has_truth() const noexcept {
    return !truth.empty() && truth.size() == reads.size();
  }

  std::size_t size() const noexcept { return reads.size(); }

  std::uint64_t total_bases() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : reads) n += r.bases.size();
    return n;
  }
};

/// Takes one batch of reads.
using BatchSink = std::function<void(std::span<const Read>)>;

/// One whole pass over a re-readable input: every call hands every read
/// to the sink, batch by batch and in input order, on the calling
/// thread. A method that counts its tables in several passes reads the
/// input through one, so a file need never be held in memory.
using ReadPass = std::function<void(const BatchSink&)>;

/// A ReadPass over the reads of `set` in blocks of `block` reads. The
/// set must outlive the pass.
inline ReadPass pass_over(const ReadSet& set, std::size_t block = 4096) {
  return [&set, block](const BatchSink& sink) {
    const std::span<const Read> all(set.reads);
    for (std::size_t i = 0; i < all.size(); i += block) {
      sink(all.subspan(i, std::min(block, all.size() - i)));
    }
  };
}

}  // namespace ngs::seq
