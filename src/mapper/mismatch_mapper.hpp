#pragma once
// RMAP-like short-read mapper: full-sensitivity mapping of a read to a
// reference allowing up to m substitutions, reporting unique / ambiguous
// / unmapped status (the evaluation instrument of Table 2.2 and the
// error-model estimation procedure of Sec. 3.4.1).
//
// Strategy: pigeonhole seeding. A read with <= m mismatches contains at
// least one exact seed among m+1 disjoint seeds; each seed is looked up
// in a genome q-gram index and every candidate placement is verified by
// counting mismatches 32 packed bases at a time (seq::kmer_hamming over
// seq::PackedSeq windows). Both strands are searched.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "seq/packed.hpp"
#include "seq/read.hpp"
#include "sim/error_model.hpp"

namespace ngs::mapper {

struct Hit {
  std::uint64_t pos = 0;    // 0-based on the forward strand
  bool reverse = false;
  int mismatches = 0;
};

enum class MapClass { kUnique, kAmbiguous, kUnmapped };

struct MapResult {
  MapClass cls = MapClass::kUnmapped;
  Hit best;  // valid when cls != kUnmapped
};

class MismatchMapper {
 public:
  /// Indexes the genome with q-grams of `seed_length` (clamped to
  /// [6, 16]). Smaller seeds preserve sensitivity for higher mismatch
  /// budgets on short reads; see seed_length_for().
  MismatchMapper(std::string_view genome, int seed_length = 12);

  /// Largest seed length guaranteeing full sensitivity for a read of
  /// length L with at most m mismatches (pigeonhole): floor(L / (m+1)).
  static int seed_length_for(std::size_t read_length, int max_mismatches);

  /// All distinct placements with <= max_mm mismatches (up to max_hits).
  std::vector<Hit> map_all(std::string_view read, int max_mm,
                           std::size_t max_hits = 16) const;

  /// RMAP-style classification: unique if exactly one placement achieves
  /// the minimum mismatch count within budget; ambiguous if several do.
  MapResult classify(std::string_view read, int max_mm) const;

  std::size_t genome_size() const noexcept { return genome_.size(); }

 private:
  void collect_candidates(std::string_view oriented_read,
                          std::vector<std::uint64_t>& candidates) const;

  seq::PackedSeq genome_;
  int seed_length_;
  // q-gram index: bucket offsets (counting sort layout) + positions.
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> positions_;
};

/// Statistics for Table 2.2: fraction of reads uniquely / ambiguously
/// mapped at a mismatch budget.
struct MappingStats {
  std::uint64_t total = 0;
  std::uint64_t unique = 0;
  std::uint64_t ambiguous = 0;
  std::uint64_t unmapped = 0;
};

MappingStats map_read_set(const MismatchMapper& mapper,
                          const seq::ReadSet& reads, int max_mm);

/// Estimates the position-specific misread matrices M from uniquely
/// mapped reads (Sec. 3.4.1): counts[i][a][b] += 1 whenever genome base a
/// was read as b at read position i. Returns the smoothed ErrorModel.
sim::ErrorModel estimate_error_model(const MismatchMapper& mapper,
                                     std::string_view genome,
                                     const seq::ReadSet& reads, int max_mm);

}  // namespace ngs::mapper
