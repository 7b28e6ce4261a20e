#pragma once
// Window extraction: for_each_window rolls one read's window codes for
// ChunkedSpectrumBuilder and TileTable::build, and fill_windows is the
// parallel fill of flat instance arrays in front of
// radix_sort_and_count in TileTable::build. Tiles are mostly distinct,
// so one sort of the whole array costs less than merging batch runs.
//
// In fill_windows the calling thread sizes every output array from the
// read lengths (L - w + 1 windows per strand, exact unless a read has
// ambiguous bases) and cuts it into disjoint slices, one per block of
// reads. Pool tasks fill their own slice and report how many codes they
// wrote; the calling thread then closes the gaps left by skipped
// windows, in block order. No task allocates: the arrays are the only
// bulk memory (see DESIGN.md, "Reptile phase 1 on the pool").

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "seq/read.hpp"
#include "util/thread_pool.hpp"

namespace ngs::kspec::detail {

/// Calls emit(forward, reverse_complement, last) for every window of
/// `bases` of length w (1 <= w <= 32) free of ambiguous bases, in read
/// order; `last` is the index of the window's final base. Emitting both
/// codes of each forward window yields exactly the multiset of the read
/// plus its reverse complement, without building the reverse string.
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
    if (++valid >= w) emit(forward, reverse, i);
  }
}

/// Fills N instance arrays from `reads`. Every array gets capacity for
/// all windows of length w (both strands if `both_strands`);
/// fill(read, cursors) writes one read's codes through cursors[j] into
/// array j and advances the cursors. Blocks of reads run as pool tasks
/// (pool == nullptr: one block on the calling thread). The returned
/// arrays hold exactly the written codes, block by block in read order.
template <std::size_t N, typename Fill>
std::array<std::vector<seq::KmerCode>, N> fill_windows(
    const seq::ReadSet& reads, int w, bool both_strands,
    util::ThreadPool* pool, Fill&& fill) {
  const auto& rs = reads.reads;
  constexpr std::size_t kMinReadsPerBlock = 1024;
  const std::size_t blocks =
      pool == nullptr ? 1
                      : std::clamp<std::size_t>(rs.size() / kMinReadsPerBlock,
                                                1, pool->size() * 4);
  // Block b covers reads [first[b], first[b + 1]) and owns the slice
  // [start[b], start[b + 1]) of every array.
  std::vector<std::size_t> first(blocks + 1);
  std::vector<std::size_t> start(blocks + 1, 0);
  const std::size_t strands = both_strands ? 2 : 1;
  for (std::size_t b = 0; b < blocks; ++b) {
    first[b + 1] = rs.size() * (b + 1) / blocks;
    std::size_t windows = 0;
    for (std::size_t i = first[b]; i < first[b + 1]; ++i) {
      windows += seq::max_kmer_windows(rs[i].bases.size(), w);
    }
    start[b + 1] = start[b] + windows * strands;
  }

  std::array<std::vector<seq::KmerCode>, N> out;
  for (auto& codes : out) codes.resize(start[blocks]);
  std::vector<std::array<std::size_t, N>> written(blocks);
  const auto fill_block = [&](std::size_t b) {
    std::array<seq::KmerCode*, N> cursors;
    for (std::size_t j = 0; j < N; ++j) cursors[j] = out[j].data() + start[b];
    for (std::size_t i = first[b]; i < first[b + 1]; ++i) fill(rs[i], cursors);
    for (std::size_t j = 0; j < N; ++j) {
      written[b][j] =
          static_cast<std::size_t>(cursors[j] - (out[j].data() + start[b]));
    }
  };
  if (pool == nullptr) {
    fill_block(0);
  } else {
    pool->parallel_for(0, blocks, fill_block);
  }

  for (std::size_t j = 0; j < N; ++j) {
    seq::KmerCode* data = out[j].data();
    std::size_t end = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (end != start[b]) {  // a gap: shift this slice left over it
        std::copy(data + start[b], data + start[b] + written[b][j],
                  data + end);
      }
      end += written[b][j];
    }
    out[j].resize(end);
  }
  return out;
}

}  // namespace ngs::kspec::detail
