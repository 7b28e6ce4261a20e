#pragma once
// Read and ReadSet: the in-memory representation of a sequencing dataset.
//
// Quality scores are stored as raw Phred values (not ASCII-offset); the
// io module converts on the way in/out. For simulated data, ReadSet also
// carries the per-read ground truth (origin position, strand, error-free
// sequence) that the evaluation module consumes — this replaces the
// paper's RMAP-based approximate truth with exact truth.

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

/// Folds what a pass worker computed from one batch into the caller's
/// state. A pass runs every fold on its calling thread, in input order.
using BatchFold = std::function<void()>;

/// Runs on a pass worker over one batch and returns the batch's fold
/// (empty when there is nothing to fold). `worker` lies in [0, workers)
/// of the pass, and no other thread runs a step for the same worker at
/// the same time, so per-worker state indexed by it needs no lock. The
/// batch stays valid until its fold has run.
using BatchWork =
    std::function<BatchFold(std::span<const Read> batch, std::size_t worker)>;

/// One whole pass over a re-readable input: every batch goes through
/// `work` on one of `workers` threads, and the folds it returns run on
/// the calling thread in input order. A method that counts its tables
/// in several passes reads the input through one, so a file need never
/// be held in memory.
struct ReadPass {
  std::size_t workers = 1;
  std::function<void(const BatchWork&)> run;

  void operator()(const BatchWork& work) const { run(work); }
};

/// A ReadPass over the reads of `set` in blocks of `block` reads on
/// `workers` threads (at least one). The set must outlive the pass.
ReadPass pass_over(const ReadSet& set, std::size_t workers,
                   std::size_t block = 4096);

}  // namespace ngs::seq
