#pragma once
// The unified corrector interface. The dissertation surveys seven
// correction methods (Reptile, REDEEM, the Sec. 3.5 hybrid, SHREC, SAP,
// HiTEC, FreClu); each module exposes its own correct_all with its own
// stats struct. core::Corrector wraps them behind one two-phase contract
// so tools, benches, and the streaming CorrectionPipeline dispatch by
// method *name* through core::make_corrector (see registry.hpp) instead
// of per-method if/else chains:
//
//   phase 1 (build)  — index construction: from a k-spectrum streamed
//                      in bounded memory (spectrum methods), from the
//                      method's own passes over the streamed input
//                      (Reptile), or from the buffered reads;
//   phase 2 (correct)— per-read batch correction (thread-safe, order-
//                      preserving) or, for whole-set algorithms, a
//                      single correct_all over the buffered reads.
//
// Results are accumulated into a CorrectionReport: common counters every
// method shares plus ordered key/value extras for method-specific stats.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "seq/read.hpp"
#include "sim/error_model.hpp"

namespace ngs::core {

/// Unified correction outcome: counters common to every method plus
/// ordered per-method key/value extras. Reports merge by summation, so
/// batch-local reports can be combined across threads and batches.
/// Non-numeric provenance (e.g. the spectrum-index path a run loaded)
/// rides along as ordered string notes; merging keeps the first value
/// seen per key.
struct CorrectionReport {
  std::uint64_t reads = 0;
  std::uint64_t reads_changed = 0;
  std::uint64_t bases_changed = 0;
  std::vector<std::pair<std::string, std::uint64_t>> extras;
  std::vector<std::pair<std::string, std::string>> notes;

  /// Adds `delta` to the extra counter `key` (created at the end of the
  /// list on first use; insertion order is preserved for display).
  void bump(std::string_view key, std::uint64_t delta);

  /// Value of extra `key`, or 0 if never bumped.
  std::uint64_t extra(std::string_view key) const noexcept;

  /// Sets the string note `key` (overwriting any previous value).
  void note(std::string_view key, std::string_view value);

  /// Value of note `key`, or "" if never set.
  std::string_view note_or(std::string_view key) const noexcept;

  void merge(const CorrectionReport& other);

  /// One-line human-readable rendering, e.g.
  /// "16666 reads, 1034 changed, 1147 bases; tiles_corrected=512 ...".
  std::string summary() const;
};

/// Accounts one before/after read pair into the common counters.
void tally_read(const seq::Read& before, const seq::Read& after,
                CorrectionReport& report);

/// Method-independent configuration consumed by the adapter factories.
/// Fields a method does not use are ignored (FreClu needs none of them).
struct CorrectorConfig {
  /// Genome length estimate |G| (Reptile/hybrid parameter selection,
  /// SHREC's occurrence statistic).
  std::uint64_t genome_length = 1'000'000;
  /// Kmer length override; 0 keeps the method default / data-driven
  /// selection.
  int k = 0;
  /// Average substitution rate for the REDEEM/hybrid misread model when
  /// no explicit error_model is supplied.
  double error_rate = 0.01;
  /// Exact error model the reads were generated with (benches pass the
  /// simulator's model); overrides error_rate.
  std::optional<sim::ErrorModel> error_model;
  /// Byte budget (MiB) for the shared pass-2 tile-decision memo cache
  /// (Reptile-family adapters; see util::ShardedCache). 0 disables
  /// memoization — output is byte-identical either way.
  std::size_t tile_cache_mb = 32;
};

/// Opaque per-worker phase-2 scratch. A correction worker obtains one
/// from Corrector::make_scratch() and passes it back to every
/// correct_batch call it issues; methods with per-read temporaries
/// (Reptile's option/candidate buffers) then reuse them across the
/// worker's whole run instead of reallocating per batch. A scratch
/// object must never be shared between concurrent callers.
class BatchScratch {
 public:
  virtual ~BatchScratch() = default;
};

/// What the pipeline learns about the input while streaming pass 1; the
/// misread-model adapters size their matrices from max_read_length.
struct InputSummary {
  std::uint64_t reads = 0;
  std::uint64_t bases = 0;
  std::size_t max_read_length = 0;

  void add(const seq::Read& r) noexcept {
    ++reads;
    bases += r.bases.size();
    if (r.bases.size() > max_read_length) max_read_length = r.bases.size();
  }
};

class Corrector {
 public:
  virtual ~Corrector() = default;

  Corrector(const Corrector&) = delete;
  Corrector& operator=(const Corrector&) = delete;

  /// Registry name of the method ("reptile", "sap", ...).
  virtual std::string_view method() const noexcept = 0;

  /// Kmer length of the phase-1 spectrum when the method can be built
  /// from streamed kmer counts alone (SAP, HiTEC, REDEEM); 0 when phase
  /// 1 needs more (Reptile's tile table, SHREC/FreClu/hybrid whole-set
  /// passes).
  virtual int spectrum_k() const noexcept { return 0; }

  /// Strand convention of the streamed spectrum (only meaningful when
  /// spectrum_k() > 0).
  virtual bool spectrum_both_strands() const noexcept { return true; }

  /// Phase 1 from a streamed spectrum. Only valid when spectrum_k() > 0;
  /// the default throws std::logic_error.
  virtual void build_from_spectrum(kspec::KSpectrum spectrum,
                                   const InputSummary& input);

  /// Phase 1 from the in-memory read set. Always supported. The default,
  /// for spectrum methods, counts the reads at spectrum_k() and
  /// spectrum_both_strands() and calls build_from_spectrum with their
  /// InputSummary, so a file, a ReadSet and an index build them alike;
  /// methods with spectrum_k() == 0 override it.
  virtual void build(const seq::ReadSet& reads);

  /// Phase 1 of a batch method with spectrum_k() == 0 from the streamed
  /// input: each call of `pass` reads the whole input once. The default
  /// buffers one pass, in input order, and calls build(); Reptile
  /// overrides it to count its tables on the pass's workers without
  /// holding the reads.
  virtual void build_streamed(const seq::ReadPass& pass);

  /// True once either build overload has completed.
  bool ready() const noexcept { return ready_; }

  /// False for whole-set algorithms (SHREC, FreClu, hybrid) that must
  /// see every read at once; the pipeline then buffers the input and
  /// calls correct_all exactly once.
  virtual bool supports_batches() const noexcept { return true; }

  /// Per-worker scratch factory; nullptr when the method keeps no
  /// reusable per-worker state.
  virtual std::unique_ptr<BatchScratch> make_scratch() const {
    return nullptr;
  }

  /// Phase 2 over one batch: appends one corrected read per input read
  /// to `out`, in order, accumulating into a caller-local report.
  /// Thread-safe after build() for batch-supporting methods; the default
  /// throws std::logic_error for whole-set methods. `scratch` is a
  /// per-worker object from make_scratch() of the same corrector (or
  /// nullptr: the method falls back to call-local temporaries).
  virtual void correct_batch(std::span<const seq::Read> in,
                             std::vector<seq::Read>& out,
                             CorrectionReport& report,
                             BatchScratch* scratch) const;

  /// Convenience overload with call-local scratch.
  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out,
                     CorrectionReport& report) const {
    correct_batch(in, out, report, nullptr);
  }

  /// Appends run-level observability extras (e.g. tile_cache_hits /
  /// tile_cache_misses) to `report`. The pipeline calls this exactly
  /// once, after phase 2 completes; the default adds nothing.
  virtual void annotate_report(CorrectionReport& report) const;

  /// Phase 2 over the whole set. The default parallelizes correct_batch
  /// over the shared thread pool (order-preserving, reports merged);
  /// whole-set methods override it with their native pass.
  virtual std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                             CorrectionReport& report) const;

 protected:
  Corrector() = default;

  void mark_ready() noexcept { ready_ = true; }

  /// Throws std::logic_error unless build has completed.
  void require_ready() const;

 private:
  bool ready_ = false;
};

}  // namespace ngs::core
