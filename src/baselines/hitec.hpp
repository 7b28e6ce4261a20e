#pragma once
// HiTEC baseline (Ilie et al. 2011, described in Sec. 1.2): an erroneous
// base can be corrected when it is preceded by an error-free kmer — if a
// (k+1)-mer s with s[0..k-1] = r[i..i+k-1], s[k] != r[i+k] occurs at
// least M times in the reads, s[k] is likely the intended base.
//
// Implementation: a (k+1)-spectrum supplies the witness counts; each
// read is scanned left-to-right (then right-to-left via the reverse
// complement, so errors at the 5' end are reachable too). A correction
// is applied when the witness extension is unique and the read's own
// extension is weak.

#include <cstdint>
#include <string>

#include "kspec/kspectrum.hpp"
#include "seq/read.hpp"

namespace ngs::baselines {

struct HitecParams {
  int k = 12;                       // witness prefix length
  std::uint32_t support = 4;        // M: witness (k+1)-mer multiplicity
  std::uint32_t weak_threshold = 2; // read's own extension below this
  int iterations = 2;               // repeat to catch multiple errors
};

struct HitecStats {
  std::uint64_t corrections = 0;
  std::uint64_t ambiguous_sites = 0;  // several strong witnesses
};

class HitecCorrector {
 public:
  /// Builds from a pre-aggregated witness spectrum (streamed; must be a
  /// (k+1)-spectrum over both strands): `extensions.k() == params.k + 1`.
  HitecCorrector(kspec::KSpectrum extensions, HitecParams params);

  seq::Read correct(const seq::Read& read, HitecStats& stats) const;

 private:
  /// One left-to-right pass over `bases`; returns corrections applied.
  std::uint64_t sweep(std::string& bases, HitecStats& stats) const;

  HitecParams params_;
  kspec::KSpectrum extensions_;  // (k+1)-spectrum, both strands
};

}  // namespace ngs::baselines
