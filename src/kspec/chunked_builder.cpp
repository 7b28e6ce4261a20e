#include "kspec/chunked_builder.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "kspec/radix.hpp"
#include "seq/alphabet.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec {
namespace {

using Run = ChunkedSpectrumBuilder::Run;

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

std::size_t run_bytes(const Run& run) noexcept {
  return run.codes.capacity() * sizeof(seq::KmerCode) +
         run.counts.capacity() * sizeof(std::uint32_t);
}

/// A read-only slice of a run.
struct RunView {
  const seq::KmerCode* codes = nullptr;
  const std::uint32_t* counts = nullptr;
  std::size_t size = 0;
};

RunView view(const Run& run, std::size_t lo, std::size_t hi) noexcept {
  return {run.codes.data() + lo, run.counts.data() + lo, hi - lo};
}

/// Walks the union of two sorted runs in key order and hands each key,
/// with its counts summed, to emit(code, count). Each step loads both
/// heads and advances one side or both without a data-dependent branch.
template <typename Emit>
void merge_two(const RunView& a, const RunView& b, Emit&& emit) {
  // Locals, so what `emit` stores cannot be taken to alias the views.
  const seq::KmerCode* a_codes = a.codes;
  const std::uint32_t* a_counts = a.counts;
  const seq::KmerCode* b_codes = b.codes;
  const std::uint32_t* b_counts = b.counts;
  const std::size_t na = a.size;
  const std::size_t nb = b.size;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const seq::KmerCode x = a_codes[i];
    const seq::KmerCode y = b_codes[j];
    const std::uint32_t take_a = x <= y;
    const std::uint32_t take_b = y <= x;
    emit(x < y ? x : y, (a_counts[i] & -take_a) + (b_counts[j] & -take_b));
    i += take_a;
    j += take_b;
  }
  for (; i < na; ++i) emit(a_codes[i], a_counts[i]);
  for (; j < nb; ++j) emit(b_codes[j], b_counts[j]);
}

/// Writes the merge of `a` and `b` from `codes`/`counts` on, which have
/// room for a.size + b.size entries, and returns its size.
std::size_t merge_to(const RunView& a, const RunView& b,
                     seq::KmerCode* codes, std::uint32_t* counts) {
  seq::KmerCode* const first = codes;
  merge_two(a, b, [&codes, &counts](seq::KmerCode code, std::uint32_t n) {
    *codes++ = code;
    *counts++ = n;
  });
  return static_cast<std::size_t>(codes - first);
}

/// The number of keys merge_two(a, b) emits.
std::size_t merged_size(const RunView& a, const RunView& b) {
  std::size_t n = 0;
  merge_two(a, b, [&n](seq::KmerCode, std::uint32_t) { ++n; });
  return n;
}

/// The merge of two whole runs, sized exactly by a counting walk first:
/// the runs the builder holds take no more memory than their keys.
Run merge_runs(const Run& a, const Run& b) {
  const RunView va = view(a, 0, a.size());
  const RunView vb = view(b, 0, b.size());
  Run out;
  out.codes.resize(merged_size(va, vb));
  out.counts.resize(out.codes.size());
  merge_to(va, vb, out.codes.data(), out.counts.data());
  return out;
}

/// Reduces the slices [at[i], end[i]) of every run (at least two) to
/// two and hands them to last(first_slice, rest). The binary counter
/// keeps runs in descending size order, so the smaller slices are
/// folded together first, in two scratch arrays sized by them, and the
/// largest slice is left for `last`.
template <typename Last>
void merge_slices(const std::vector<Run>& runs, const std::size_t* at,
                  const std::size_t* end, Last&& last) {
  const std::size_t m = runs.size();
  RunView rest = view(runs[m - 1], at[m - 1], end[m - 1]);
  std::size_t cap = 0;
  for (std::size_t i = 1; i < m; ++i) cap += end[i] - at[i];
  const std::size_t scratch = m > 2 ? 2 * cap : 0;
  const auto codes = std::make_unique_for_overwrite<seq::KmerCode[]>(scratch);
  const auto counts = std::make_unique_for_overwrite<std::uint32_t[]>(scratch);
  for (std::size_t i = m - 1, side = 0; i-- > 1; side ^= 1) {
    seq::KmerCode* out_codes = codes.get() + side * cap;
    std::uint32_t* out_counts = counts.get() + side * cap;
    const std::size_t n =
        merge_to(view(runs[i], at[i], end[i]), rest, out_codes, out_counts);
    rest = {out_codes, out_counts, n};
  }
  last(view(runs[0], at[0], end[0]), rest);
}

/// Merges every run into one, by disjoint key ranges across `pool`: the
/// ranges are cut at quantiles of the largest run, each range's merged
/// size is counted first, and each range then merges straight into its
/// slice of the output. Any merge order sums the same counts over the
/// same keys, so the arrays equal a pairwise merge's. `runs` is
/// released. `note_output(bytes)` sees the output's size before it is
/// allocated.
template <typename Note>
Run merge_by_range(std::vector<Run>& runs, util::ThreadPool& pool,
                   Note&& note_output) {
  if (runs.empty()) return {};
  if (runs.size() == 1) {
    Run only = std::move(runs.front());
    runs.clear();
    return only;
  }
  // Ranges of a few thousand keys keep each range's scratch run in
  // cache.
  constexpr std::size_t kRangeKeys = 1 << 12;
  const std::size_t m = runs.size();
  std::size_t total = 0;
  const Run* largest = &runs.front();
  for (const Run& run : runs) {
    total += run.size();
    if (run.size() > largest->size()) largest = &run;
  }
  const std::size_t ranges =
      std::clamp<std::size_t>(total / kRangeKeys, 1, largest->size());
  std::vector<seq::KmerCode> splits;
  for (std::size_t r = 1; r < ranges; ++r) {
    const seq::KmerCode key = largest->codes[r * largest->size() / ranges];
    if (splits.empty() || splits.back() < key) splits.push_back(key);
  }
  // bounds[r * m + i]: where range r starts in run i.
  const std::size_t cuts = splits.size() + 1;
  std::vector<std::size_t> bounds((cuts + 1) * m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto& codes = runs[i].codes;
    bounds[i] = 0;
    for (std::size_t r = 1; r < cuts; ++r) {
      bounds[r * m + i] = static_cast<std::size_t>(
          std::lower_bound(codes.begin(), codes.end(), splits[r - 1]) -
          codes.begin());
    }
    bounds[cuts * m + i] = codes.size();
  }
  std::vector<std::size_t> first(cuts + 1, 0);
  pool.parallel_for(0, cuts, [&](std::size_t r) {
    merge_slices(runs, &bounds[r * m], &bounds[(r + 1) * m],
                 [&](const RunView& a, const RunView& b) {
                   first[r + 1] = merged_size(a, b);
                 });
  });
  for (std::size_t r = 0; r < cuts; ++r) first[r + 1] += first[r];
  note_output(first[cuts] * (sizeof(seq::KmerCode) + sizeof(std::uint32_t)));
  Run out;
  out.codes.resize(first[cuts]);
  out.counts.resize(first[cuts]);
  pool.parallel_for(0, cuts, [&](std::size_t r) {
    merge_slices(runs, &bounds[r * m], &bounds[(r + 1) * m],
                 [&](const RunView& a, const RunView& b) {
                   merge_to(a, b, out.codes.data() + first[r],
                            out.counts.data() + first[r]);
                 });
  });
  runs.clear();
  return out;
}

}  // namespace

ChunkedSpectrumBuilder::ChunkedSpectrumBuilder(int k, bool both_strands,
                                               std::size_t batch_instances,
                                               util::ThreadPool* pool,
                                               SpillOptions spill,
                                               std::size_t lanes)
    : k_(k),
      both_strands_(both_strands),
      pool_(pool),
      lane_capacity_(std::max<std::size_t>(1024, batch_instances)),
      lanes_(std::max<std::size_t>(1, lanes)),
      memory_budget_(spill.memory_budget_bytes) {
  for (Lane& lane : lanes_) lane.owner_ = this;
  if (memory_budget_ > 0) {
    spill_shard_bits_ = std::min(kSpillShardBits, 2 * k);
    // A third of the budget holds the lanes' buffers and scratch; the
    // rest covers the bins counted at once at finish (finish_spilled).
    lane_capacity_ = std::max<std::size_t>(
        1024, memory_budget_ /
                  (3 * 2 * sizeof(seq::KmerCode) * lanes_.size()));
    if (!spill.spill_dir.empty()) {
      spill_dir_ = spill.spill_dir;
    } else {
      std::error_code ec;
      const auto tmp = std::filesystem::temp_directory_path(ec);
      spill_dir_ = ec ? std::string(".") : tmp.string();
    }
  }
  // The lanes' arrays are allocated here, on the thread that builds
  // the counter, rather than by the pass workers that fill them: a
  // worker thread's allocator arena keeps freed memory at its top
  // resident, which util::release_free_memory() cannot hand back.
  for (Lane& lane : lanes_) lane.allocate();
}

ChunkedSpectrumBuilder::~ChunkedSpectrumBuilder() = default;

void ChunkedSpectrumBuilder::Lane::add(std::string_view bases) {
  const ChunkedSpectrumBuilder& owner = *owner_;
  const std::size_t capacity = owner.lane_capacity_;
  const bool budget = owner.memory_budget_ > 0;
  if (buffer_.capacity() == 0) allocate();
  const auto push = [&](seq::KmerCode code) {
    buffer_.push_back(code);
    ++added_;
    if (buffer_.size() < capacity) return;
    peak_ = capacity;
    flush(budget);
  };
  for_each_window(bases, owner.k_,
                  [&](seq::KmerCode forward, seq::KmerCode reverse) {
                    push(forward);
                    if (owner.both_strands_) push(reverse);
                  });
  peak_ = std::max(peak_, buffer_.size());
}

void ChunkedSpectrumBuilder::Lane::allocate() {
  // Reserved whole, touched only as far as the lane fills them; the
  // budget accounting counts the reservations.
  buffer_.reserve(owner_->lane_capacity_);
  scratch_.reserve(owner_->lane_capacity_);
}

void ChunkedSpectrumBuilder::Lane::flush(bool spill) {
  if (buffer_.empty()) return;
  if (spill) {
    owner_->partitioner().add(buffer_, scratch_);
  } else {
    // Sorted on this lane's thread: the pass's other workers are
    // counting their own batches meanwhile.
    Run run;
    radix_sort_and_count(std::span<seq::KmerCode>(buffer_), scratch_,
                         owner_->k_, run.codes, run.counts);
    runs_.push_back(std::move(run));
  }
  buffer_.clear();  // capacity is kept for the next fill
}

seq::BatchFold ChunkedSpectrumBuilder::Lane::take() {
  ChunkedSpectrumBuilder* owner = owner_;
  if (owner->memory_budget_ > 0) {
    return [owner, n = std::exchange(added_, 0)] { owner->instances_ += n; };
  }
  added_ = 0;
  flush(false);
  return [owner, runs = std::exchange(runs_, {})]() mutable {
    owner->fold(std::move(runs));
  };
}

void ChunkedSpectrumBuilder::Lane::release() noexcept {
  // NB: `buffer_ = {}` would assign an empty initializer_list and keep
  // the capacity; move-assigning a fresh vector actually releases it.
  buffer_ = std::vector<seq::KmerCode>();
  scratch_ = std::vector<seq::KmerCode>();
  runs_ = std::vector<Run>();
  added_ = 0;
  peak_ = 0;
}

seq::BatchFold ChunkedSpectrumBuilder::count(std::span<const seq::Read> reads,
                                             std::size_t lane) {
  Lane& l = lanes_[lane];
  for (const auto& r : reads) l.add(r.bases);
  return l.take();
}

void ChunkedSpectrumBuilder::fold(std::vector<Run>&& runs) {
  for (Run& run : runs) {
    // Binary-counter merging: a new run cascades into equal-or-smaller
    // predecessors, keeping O(log batches) live runs.
    while (!runs_.empty() && runs_.back().size() <= run.size()) {
      Run merged = merge_runs(runs_.back(), run);
      note_tracked(run_bytes(run) + run_bytes(merged));
      run = std::move(merged);
      runs_.pop_back();
    }
    runs_.push_back(std::move(run));
  }
}

SpillPartitioner& ChunkedSpectrumBuilder::partitioner() {
  std::lock_guard<std::mutex> lock(partitioner_mutex_);
  if (partitioner_ == nullptr) {
    partitioner_ = std::make_unique<SpillPartitioner>(k_, spill_shard_bits_,
                                                      spill_dir_);
  }
  return *partitioner_;
}

std::size_t ChunkedSpectrumBuilder::lane_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    bytes += (lane.buffer_.capacity() + lane.scratch_.capacity()) *
             sizeof(seq::KmerCode);
  }
  return bytes;
}

std::size_t ChunkedSpectrumBuilder::held_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Run& run : runs_) bytes += run_bytes(run);
  return bytes;
}

void ChunkedSpectrumBuilder::note_tracked(std::size_t extra_bytes) {
  if (memory_budget_ == 0) return;
  peak_tracked_bytes_ = std::max(
      peak_tracked_bytes_, lane_bytes() + held_bytes() + extra_bytes);
}

std::size_t ChunkedSpectrumBuilder::peak_buffered() const noexcept {
  std::size_t peak = 0;
  for (const Lane& lane : lanes_) peak = std::max(peak, lane.peak_);
  return peak;
}

void ChunkedSpectrumBuilder::close_lanes() {
  if (finish_pending_reset_) {
    peak_tracked_bytes_ = 0;
    spill_bytes_ = 0;
    finish_pending_reset_ = false;
  }
  for (Lane& lane : lanes_) lane.take()();
  // Under a budget the lanes still hold their last instances: to the
  // bins once the build spills, else counted into runs like a batch.
  note_tracked(0);
  if (memory_budget_ > 0) {
    const bool spill = spilled();
    for (Lane& lane : lanes_) {
      lane.flush(spill);
      fold(std::exchange(lane.runs_, {}));
      note_tracked(0);
    }
  }
  for (Lane& lane : lanes_) lane.release();
}

ChunkedSpectrumBuilder::Run ChunkedSpectrumBuilder::merge_held_runs() {
  util::ThreadPool& pool = pool_ != nullptr ? *pool_ : util::default_pool();
  return merge_by_range(runs_, pool,
                        [this](std::size_t bytes) { note_tracked(bytes); });
}

void ChunkedSpectrumBuilder::flush_spill() {
  if (!spilled() || spill_flushed_) return;
  close_lanes();
  SpillPartitioner& bins = partitioner();
  bins.close_writes();
  spill_bytes_ = bins.spilled_bytes();
  spill_flushed_ = true;
}

std::size_t ChunkedSpectrumBuilder::spill_nonempty_bins() const noexcept {
  return partitioner_ != nullptr ? partitioner_->nonempty_bins() : 0;
}

void ChunkedSpectrumBuilder::reset_spill_state() {
  partitioner_.reset();  // removes the bin files
  instances_ = 0;
  spill_flushed_ = false;
  finish_pending_reset_ = true;
}

void ChunkedSpectrumBuilder::finish_spilled(
    const std::function<void(SortedRun&&)>& consume) {
  if (!spilled()) {
    throw std::logic_error(
        "ChunkedSpectrumBuilder::finish_spilled: nothing was spilled "
        "(use finish())");
  }
  flush_spill();
  try {
    const SpillPartitioner& bins = *partitioner_;
    util::ThreadPool& pool = pool_ != nullptr ? *pool_ : util::default_pool();
    std::size_t next = 0;
    while (next < bins.bin_count()) {
      // The next wave: consecutive non-empty bins whose worst-case
      // working sets fit the budget together (always at least one). A
      // bin of n codes holds at most 20n bytes: its codes and the
      // kernel's scratch, or the codes and a (code, count) run of at
      // most n entries.
      std::vector<std::size_t> wave;
      std::size_t planned = 0;
      for (; next < bins.bin_count(); ++next) {
        const std::size_t n = bins.bin_instances(next);
        if (n == 0) continue;
        const std::size_t worst =
            n * (2 * sizeof(seq::KmerCode) + sizeof(std::uint32_t));
        if (!wave.empty() && planned + worst > memory_budget_) break;
        wave.push_back(next);
        planned += worst;
      }
      std::vector<SortedRun> runs(wave.size());
      std::vector<std::size_t> peaks(wave.size());
      pool.parallel_for(0, wave.size(), [&](std::size_t i) {
        std::vector<seq::KmerCode> codes = bins.read_bin(wave[i]);
        const std::size_t code_bytes = codes.size() * sizeof(seq::KmerCode);
        SortedRun& run = runs[i];
        run.prefix = static_cast<std::uint32_t>(wave[i]);
        radix_sort_and_count(std::move(codes), k_, run.codes, run.counts);
        // The kernel holds the bin and its scratch, then releases one of
        // them before it allocates the run.
        peaks[i] = std::max(
            2 * code_bytes,
            code_bytes + run.codes.capacity() * sizeof(seq::KmerCode) +
                run.counts.capacity() * sizeof(std::uint32_t));
      });
      std::size_t wave_bytes = 0;
      for (const std::size_t p : peaks) wave_bytes += p;
      note_tracked(wave_bytes);
      for (SortedRun& run : runs) consume(std::move(run));
    }
  } catch (...) {
    reset_spill_state();
    throw;
  }
  reset_spill_state();
}

KSpectrum ChunkedSpectrumBuilder::finish() {
  close_lanes();
  if (spilled()) {
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
  Run all = merge_held_runs();
  instances_ = 0;
  finish_pending_reset_ = true;
  return KSpectrum::from_sorted_counts(std::move(all.codes),
                                       std::move(all.counts), k_);
}

}  // namespace ngs::kspec
