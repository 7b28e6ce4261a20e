#pragma once
// Two-pass streaming batched correction (cf. BFC and RECKONER, which
// stream reads in bounded memory instead of materializing whole FASTQ
// files). Every pass reads the input through one loop, a
// util::PipelineExecutor run: a reader thread parses batches ahead,
// workers process them, and the calling thread consumes them in input
// order.
//
//   pass 1 — a seq::ReadPass on `threads` workers: the spectrum step
//            (build_spectrum) loads a saved index or counts the
//            k-spectrum of streamed batches on the workers' lanes, in
//            memory or by spilling to disk bins that stream into an
//            index file; Reptile counts its tables in passes of its own
//            over the streamed input (Corrector::build_streamed); the
//            whole-set methods (SHREC, FreClu, hybrid) buffer the
//            streamed batches into a ReadSet;
//   pass 2 — the input streamed again, `threads` workers correcting
//            batches and the calling thread writing them in order. The
//            whole-set methods use correct_all.
//
// Output is byte-identical to the in-memory Corrector::correct_all path
// for every method and thread count: reads are corrected independently
// and the executor writes batches in input order.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/corrector.hpp"
#include "io/fastq_stream.hpp"
#include "kspec/kspectrum.hpp"
#include "util/pipeline_executor.hpp"

namespace ngs::core {

struct PipelineOptions {
  /// Reads per batch, in both passes.
  std::size_t batch_size = 4096;
  /// Workers of every pass (pass 1 counts on them, pass 2 corrects on
  /// them) and threads of the spectrum step's final merge; 0 = the size
  /// of the shared default pool (all cores). In-flight batches stay
  /// under the executor cap of queue_depth (4) + 2*threads + 1, so
  /// memory remains O(batch_size x small constant).
  std::size_t threads = 0;
  /// Kmer instances each pass-1 counting lane holds before it counts
  /// them (ChunkedSpectrumBuilder's lane capacity without a budget).
  std::size_t spectrum_batch_instances = 1 << 20;
  /// Path of a persisted spectrum index (ngs::index) to mmap instead of
  /// building pass 1 from the reads; empty = build fresh. Only valid
  /// for streaming methods (Corrector::spectrum_k() > 0) and only when
  /// the index's k / strand convention match the corrector; the input
  /// summary (reads/bases/max read length) comes from the index header,
  /// so output is byte-identical to a fresh run over the same reads.
  std::string load_index_path;
  /// When non-empty, persist the freshly built pass-1 spectrum (plus
  /// input provenance) to this path for future --load-index runs.
  /// Streaming methods only; ignored when load_index_path is set (there
  /// is nothing new to save). The bytes do not depend on
  /// memory_budget_bytes: a spilled build writes the same file.
  std::string save_index_path;
  /// Bound (bytes) on the pass-1 spectrum build's own tracked memory
  /// (kspec::SpillOptions::memory_budget_bytes): when the k-spectrum
  /// exceeds it, instances spill to per-prefix disk bins, the bins
  /// stream into an index file, and pass 2 queries the mapped file
  /// instead of an in-memory array. 0 = unlimited (the default
  /// in-memory build). Streaming methods only. Corrected output is
  /// byte-identical to an unconstrained run.
  std::size_t memory_budget_bytes = 0;
  /// Directory for spill bins and the transient index of a
  /// budget-constrained run; "" = the system temp directory.
  std::string spill_dir;
  /// Malformed-FASTQ policy (ngs-correct --on-bad-record). kFail aborts
  /// with a located parse error; kSkip counts and drops bad records
  /// (reported as reads_skipped) and keeps going — both passes apply
  /// the same policy, so the streamed spectrum and the corrected output
  /// see the same records.
  io::BadRecordPolicy on_bad_record = io::BadRecordPolicy::kFail;
  /// Bounded retry for transient input-open failures (see
  /// fault::with_retry): total attempts and initial backoff, doubling
  /// per retry. Retries performed are reported as io_retries.
  int io_retry_attempts = 3;
  int io_retry_backoff_ms = 5;
};

/// Reopenable input source: called once per pass, returning a fresh
/// stream over the same bytes.
using StreamFactory = std::function<std::unique_ptr<std::istream>()>;

/// Removes the file at `path` when destroyed (nothing while `path` is
/// empty). Move-only, so exactly one owner removes it.
struct TransientFile {
  std::string path;

  TransientFile() = default;
  TransientFile(TransientFile&& other) noexcept;
  TransientFile& operator=(TransientFile&& other) noexcept;
  ~TransientFile();
};

/// What the spectrum step produced: the k-spectrum pass 2 queries, plus
/// where it came from and what building it cost.
struct SpectrumStep {
  kspec::KSpectrum spectrum;
  /// Reads/bases/max length counted in pass 1 (or the loaded index's
  /// header).
  InputSummary input;
  /// Pass 1 was replaced by the index at options.load_index_path.
  bool loaded = false;
  /// The spectrum was written to options.save_index_path.
  bool saved = false;
  /// Checksum of the loaded or saved index (0 when neither).
  std::uint64_t index_checksum = 0;
  /// Malformed records dropped under BadRecordPolicy::kSkip.
  std::uint64_t records_skipped = 0;
  /// Ingest executor telemetry (all zero when loaded).
  util::PipelineExecutorStats ingest;
  /// Largest number of parsed reads held between reader and builder.
  std::size_t peak_buffered_reads = 0;
  /// The build exceeded memory_budget_bytes and spilled to disk bins.
  bool spilled = false;
  std::uint64_t spilled_bytes = 0;
  /// Non-empty spill bins the spectrum was built from (0 when not
  /// spilled).
  std::size_t spill_bins = 0;
  /// ChunkedSpectrumBuilder::peak_tracked_bytes (0 without a budget).
  std::uint64_t peak_tracked_bytes = 0;
  /// Keeps a transient index on disk while `spectrum` maps it.
  TransientFile transient_index;
};

/// Pass 1 of a spectrum-streamed method, shared by ngs-correct and
/// ngs-index build. Loads options.load_index_path (checking it was
/// built with `k` and `both_strands`), or streams `open_input()` in
/// batches into a kspec::ChunkedSpectrumBuilder, one lane per pass
/// worker: in memory, or under
/// options.memory_budget_bytes by spilling to disk bins streamed into an
/// index file (saved at options.save_index_path, else transient in
/// options.spill_dir) that pass 2 then maps.
/// A non-empty options.save_index_path persists the spectrum either way.
SpectrumStep build_spectrum(const PipelineOptions& options, int k,
                            bool both_strands,
                            const StreamFactory& open_input);

struct PipelineResult {
  /// What the corrector counted; the pipeline adds only correct_span's
  /// reads_failed and batches_salvaged.
  CorrectionReport report;
  InputSummary input;
  /// Number of output batches written.
  std::size_t batches = 0;
  /// Largest number of reads resident in the pipeline's own buffers at
  /// any point: <= batch_size * (queue_depth + 2*workers + 1) for batch
  /// methods, the whole input for the whole-set ones.
  std::size_t peak_buffered_reads = 0;
  /// util::peak_rss_bytes() sampled at completion (process-wide telemetry).
  std::uint64_t peak_rss_bytes = 0;
  /// True when phase 1 was skipped entirely in favor of the spectrum
  /// index at index_path.
  bool pass1_skipped = false;
  /// The spectrum index the run loaded or saved, and its checksum
  /// (empty and 0 when it did neither).
  std::string index_path;
  std::uint64_t index_checksum = 0;
  /// Executor telemetry of phase 1 (summed over its passes; zero for a
  /// loaded index) and of pass 2 (zero for correct_all methods).
  util::PipelineExecutorStats pass1_overlap;
  util::PipelineExecutorStats pass2_overlap;
  /// Wall seconds of pass 2: the executor run, or correct_all for the
  /// whole-set methods.
  double pass2_seconds = 0.0;
  /// Malformed records dropped under BadRecordPolicy::kSkip: the most
  /// any one pass dropped.
  std::uint64_t reads_skipped = 0;
  /// Reads whose correction threw and were passed through uncorrected
  /// by the per-read salvage path (report extra "reads_failed").
  std::uint64_t reads_failed = 0;
  /// Transient input-open failures absorbed by the bounded retry.
  std::uint64_t io_retries = 0;
  /// True when the pass-1 build exceeded memory_budget_bytes and went
  /// through the spill path.
  bool spectrum_spilled = false;
  /// Non-empty spill bins of the pass-1 build (0 when not spilled).
  std::size_t spectrum_spill_bins = 0;
  /// Bytes written to the spill bins during pass 1.
  std::uint64_t spectrum_spilled_bytes = 0;
  /// The spectrum builder's own peak memory accounting
  /// (ChunkedSpectrumBuilder::peak_tracked_bytes; 0 without a budget).
  std::uint64_t spectrum_peak_tracked_bytes = 0;
};

class CorrectionPipeline {
 public:
  using StreamFactory = core::StreamFactory;

  explicit CorrectionPipeline(std::unique_ptr<Corrector> corrector,
                              PipelineOptions options = {});

  const Corrector& corrector() const noexcept { return *corrector_; }
  const PipelineOptions& options() const noexcept { return options_; }

  /// Corrects in_fastq into out_fastq. The output is written to a
  /// sibling temp file and atomically renamed into place on success
  /// (mirroring the index writer), so an interrupted or failed run
  /// never leaves a truncated corrected FASTQ behind.
  PipelineResult run_file(const std::string& in_fastq,
                          const std::string& out_fastq);

  /// Stream-level entry point (tests, in-memory sources).
  PipelineResult run(const StreamFactory& open_input, std::ostream& out);

 private:
  /// Corrects one contiguous span with the batch-then-salvage ladder
  /// (kPass2Batch / kPass2Read degradation): appends exactly in.size()
  /// reads to `out`, tallying into the caller-local report. Called by
  /// the pass-2 executor workers.
  void correct_span(std::span<const seq::Read> in,
                    std::vector<seq::Read>& out, CorrectionReport& local,
                    BatchScratch* scratch);

  std::unique_ptr<Corrector> corrector_;
  PipelineOptions options_;
};

}  // namespace ngs::core
