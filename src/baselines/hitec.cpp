#include "baselines/hitec.hpp"

#include <array>
#include <stdexcept>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"

namespace ngs::baselines {

HitecCorrector::HitecCorrector(kspec::KSpectrum extensions, HitecParams params)
    : params_(params), extensions_(std::move(extensions)) {
  if (!extensions_.empty() && extensions_.k() != params_.k + 1) {
    throw std::invalid_argument(
        "HitecCorrector: witness spectrum k != params.k + 1");
  }
}

std::uint64_t HitecCorrector::sweep(std::string& bases,
                                    HitecStats& stats) const {
  const auto k = static_cast<std::size_t>(params_.k);
  if (bases.size() < k + 1) return 0;
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i + k < bases.size(); ++i) {
    const auto prefix =
        seq::encode_kmer(std::string_view(bases).substr(i, k));
    if (!prefix) continue;
    const std::uint8_t current = seq::base_to_code(bases[i + k]);
    // Witness counts for each extension of the error-free prefix.
    std::array<std::uint32_t, 4> counts{};
    for (std::uint8_t b = 0; b < 4; ++b) {
      counts[b] = extensions_.count((*prefix << 2) | b);
    }
    if (current != seq::kInvalidBase &&
        counts[current] >= params_.weak_threshold) {
      continue;  // the read's own extension is adequately supported
    }
    std::uint8_t witness = 4;
    int strong = 0;
    for (std::uint8_t b = 0; b < 4; ++b) {
      if (b == current) continue;
      if (counts[b] >= params_.support) {
        witness = b;
        ++strong;
      }
    }
    if (strong == 1) {
      bases[i + k] = seq::code_to_base(witness);
      ++applied;
    } else if (strong > 1) {
      ++stats.ambiguous_sites;
    }
  }
  return applied;
}

seq::Read HitecCorrector::correct(const seq::Read& read,
                                  HitecStats& stats) const {
  seq::Read out = read;
  for (int iter = 0; iter < params_.iterations; ++iter) {
    std::uint64_t applied = sweep(out.bases, stats);
    // Right-to-left via the reverse complement (the (k+1)-spectrum holds
    // both strands, so witness counts remain valid).
    std::string rc = seq::reverse_complement(out.bases);
    applied += sweep(rc, stats);
    out.bases = seq::reverse_complement(rc);
    stats.corrections += applied;
    if (applied == 0) break;
  }
  return out;
}

}  // namespace ngs::baselines
