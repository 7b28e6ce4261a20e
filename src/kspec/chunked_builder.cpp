#include "kspec/chunked_builder.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "kspec/radix.hpp"
#include "seq/alphabet.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec {
namespace {

/// Calls emit(forward, reverse_complement) for every window of `bases`
/// of length w (1 <= w <= 32) free of ambiguous bases, in read order.
/// Emitting both codes of each forward window yields exactly the
/// multiset of the read plus its reverse complement, without building
/// the reverse string.
template <typename Emit>
void for_each_window(std::string_view bases, int w, Emit&& emit) {
  if (bases.size() < static_cast<std::size_t>(w)) return;
  const seq::KmerCode mask =
      w == 32 ? ~seq::KmerCode{0} : (seq::KmerCode{1} << (2 * w)) - 1;
  const int rc_shift = 2 * (w - 1);
  seq::KmerCode forward = 0;
  seq::KmerCode reverse = 0;
  int valid = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::uint8_t b = seq::base_to_code(bases[i]);
    if (b == seq::kInvalidBase) {
      valid = 0;
      continue;
    }
    forward = ((forward << 2) | b) & mask;
    reverse = (reverse >> 2) |
              (seq::KmerCode{seq::complement_code(b)} << rc_shift);
    if (++valid >= w) emit(forward, reverse);
  }
}

}  // namespace

ChunkedSpectrumBuilder::ChunkedSpectrumBuilder(int k, bool both_strands,
                                               std::size_t batch_instances,
                                               util::ThreadPool* pool,
                                               SpillOptions spill)
    : k_(k),
      both_strands_(both_strands),
      pool_(pool),
      buffer_capacity_(std::max<std::size_t>(1024, batch_instances)),
      memory_budget_(spill.memory_budget_bytes) {
  if (memory_budget_ > 0) {
    spill_shard_bits_ = std::min(kSpillShardBits, 2 * k);
    // A third of the budget buffers raw instances before they spill;
    // the spill-bin buffers take ~a sixth; the rest covers one bin's
    // finish-phase read + scratch + count arrays (see note_tracked).
    buffer_capacity_ = std::max<std::size_t>(
        4096, memory_budget_ / (3 * sizeof(seq::KmerCode)));
    if (!spill.spill_dir.empty()) {
      spill_dir_ = spill.spill_dir;
    } else {
      std::error_code ec;
      const auto tmp = std::filesystem::temp_directory_path(ec);
      spill_dir_ = ec ? std::string(".") : tmp.string();
    }
  }
}

ChunkedSpectrumBuilder::~ChunkedSpectrumBuilder() = default;

void ChunkedSpectrumBuilder::note_tracked(std::size_t finish_phase_bytes) {
  if (memory_budget_ == 0) return;
  std::size_t current =
      (buffer_.capacity() + scratch_.capacity()) * sizeof(seq::KmerCode);
  if (partitioner_ != nullptr) current += partitioner_->buffer_bytes();
  current += finish_phase_bytes;
  peak_tracked_bytes_ = std::max(peak_tracked_bytes_, current);
}

void ChunkedSpectrumBuilder::add_read(std::string_view bases) {
  if (finish_pending_reset_) {
    peak_tracked_bytes_ = 0;
    spill_bytes_ = 0;
    finish_pending_reset_ = false;
  }
  if (buffer_.capacity() == 0) buffer_.reserve(buffer_capacity_);
  for_each_window(bases, k_,
                  [this](seq::KmerCode forward, seq::KmerCode reverse) {
                    push(forward);
                    if (both_strands_) push(reverse);
                  });
  peak_buffered_ = std::max(peak_buffered_, buffer_.size());
  note_tracked(0);
}

void ChunkedSpectrumBuilder::push(seq::KmerCode code) {
  buffer_.push_back(code);
  if (buffer_.size() < buffer_capacity_) return;
  peak_buffered_ = buffer_capacity_;
  if (memory_budget_ > 0) {
    spill_buffer();
  } else {
    flush_batch();
  }
}

void ChunkedSpectrumBuilder::spill_buffer() {
  if (partitioner_ == nullptr) {
    const std::size_t bins = std::size_t{1} << spill_shard_bits_;
    // Bin buffers together take ~a sixth of the budget.
    const std::size_t per_bin = std::clamp<std::size_t>(
        memory_budget_ / (6 * bins * sizeof(seq::KmerCode)), 64, 4096);
    partitioner_ = std::make_unique<SpillPartitioner>(
        k_, spill_shard_bits_, spill_dir_, per_bin);
  }
  partitioner_->add(buffer_);
  spilled_ = true;
  note_tracked(0);
  buffer_.clear();  // capacity is kept for the next fill
}

void ChunkedSpectrumBuilder::add_read_batch(std::span<const seq::Read> reads) {
  for (const auto& r : reads) add_read(r.bases);
}

void ChunkedSpectrumBuilder::flush_batch() {
  if (buffer_.empty()) return;
  Run run;
  RadixSortOptions radix;
  radix.pool = pool_;  // nullptr -> default pool
  radix_sort_and_count(std::span<seq::KmerCode>(buffer_), scratch_, k_,
                       run.codes, run.counts, radix);
  note_tracked(0);
  buffer_.clear();  // capacity is kept for the next batch

  // Binary-counter merging: a new run cascades into equal-or-smaller
  // predecessors, keeping O(log batches) live runs.
  while (!runs_.empty() && runs_.back().size() <= run.size()) {
    run = merge_runs(runs_.back(), run);
    runs_.pop_back();
  }
  runs_.push_back(std::move(run));
}

void ChunkedSpectrumBuilder::release_buffers() {
  // NB: `buffer_ = {}` would assign an empty initializer_list and keep
  // the capacity; move-assigning a fresh vector actually releases it.
  buffer_ = std::vector<seq::KmerCode>();
  scratch_ = std::vector<seq::KmerCode>();
}

ChunkedSpectrumBuilder::Run ChunkedSpectrumBuilder::merge_runs(const Run& a,
                                                               const Run& b) {
  Run out;
  out.codes.reserve(a.size() + b.size());
  out.counts.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.codes[i] < b.codes[j]) {
      out.codes.push_back(a.codes[i]);
      out.counts.push_back(a.counts[i]);
      ++i;
    } else if (b.codes[j] < a.codes[i]) {
      out.codes.push_back(b.codes[j]);
      out.counts.push_back(b.counts[j]);
      ++j;
    } else {
      out.codes.push_back(a.codes[i]);
      out.counts.push_back(a.counts[i] + b.counts[j]);
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) {
    out.codes.push_back(a.codes[i]);
    out.counts.push_back(a.counts[i]);
  }
  for (; j < b.size(); ++j) {
    out.codes.push_back(b.codes[j]);
    out.counts.push_back(b.counts[j]);
  }
  return out;
}

void ChunkedSpectrumBuilder::flush_spill() {
  if (!spilled_ || spill_flushed_) return;
  if (!buffer_.empty()) {
    partitioner_->add(buffer_);
    buffer_.clear();
  }
  partitioner_->close_writes();
  spill_bytes_ = partitioner_->spilled_bytes();
  spill_flushed_ = true;
  release_buffers();
}

std::size_t ChunkedSpectrumBuilder::spill_nonempty_bins() const noexcept {
  return partitioner_ != nullptr ? partitioner_->nonempty_bins() : 0;
}

void ChunkedSpectrumBuilder::reset_spill_state() {
  partitioner_.reset();  // removes the bin files
  release_buffers();
  spilled_ = false;
  spill_flushed_ = false;
  finish_pending_reset_ = true;
}

void ChunkedSpectrumBuilder::finish_spilled(
    const std::function<void(SortedRun&&)>& consume) {
  if (!spilled_) {
    throw std::logic_error(
        "ChunkedSpectrumBuilder::finish_spilled: nothing was spilled "
        "(use finish())");
  }
  flush_spill();
  try {
    // A bin's codes share their top spill_shard_bits(), so partitioning
    // them by prefix would find one bucket: sort each bin as one bucket
    // on this thread.
    RadixSortOptions radix;
    radix.radix_bits = 0;
    for (std::size_t b = 0; b < partitioner_->bin_count(); ++b) {
      if (partitioner_->bin_instances(b) == 0) continue;
      std::vector<seq::KmerCode> codes = partitioner_->read_bin(b);
      const std::size_t code_bytes = codes.size() * sizeof(seq::KmerCode);
      SortedRun run;
      run.prefix = static_cast<std::uint32_t>(b);
      radix_sort_and_count(std::move(codes), k_, run.codes, run.counts,
                           radix);
      // The kernel holds the bin and its scratch, then releases one of
      // them before it allocates the run.
      note_tracked(std::max(2 * code_bytes,
                            code_bytes +
                                run.codes.capacity() * sizeof(seq::KmerCode) +
                                run.counts.capacity() * sizeof(std::uint32_t)));
      consume(std::move(run));
    }
  } catch (...) {
    reset_spill_state();
    peak_buffered_ = 0;
    throw;
  }
  reset_spill_state();
  peak_buffered_ = 0;
}

KSpectrum ChunkedSpectrumBuilder::finish() {
  if (spilled_) {
    // Concatenating disjoint ascending prefix bins yields the globally
    // sorted arrays directly (no merging) — identical to what the
    // in-memory path would have produced.
    Run all;
    finish_spilled([&all](SortedRun&& run) {
      all.codes.insert(all.codes.end(), run.codes.begin(), run.codes.end());
      all.counts.insert(all.counts.end(), run.counts.begin(),
                        run.counts.end());
    });
    return KSpectrum::from_sorted_counts(std::move(all.codes),
                                         std::move(all.counts), k_);
  }
  flush_batch();
  release_buffers();
  // Tree reduction: merge disjoint run pairs concurrently per round
  // (counts over equal keys are associative and commutative, so any
  // merge order yields the identical final arrays).
  util::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : util::default_pool();
  while (runs_.size() > 1) {
    const std::size_t pairs = runs_.size() / 2;
    std::vector<Run> next(pairs + runs_.size() % 2);
    pool.parallel_for(0, pairs, [&](std::size_t p) {
      next[p] = merge_runs(runs_[2 * p], runs_[2 * p + 1]);
    });
    if (runs_.size() % 2 != 0) next.back() = std::move(runs_.back());
    runs_ = std::move(next);
  }
  Run all = runs_.empty() ? Run{} : std::move(runs_.front());
  runs_.clear();
  peak_buffered_ = 0;
  finish_pending_reset_ = true;

  return KSpectrum::from_sorted_counts(std::move(all.codes),
                                       std::move(all.counts), k_);
}

}  // namespace ngs::kspec
