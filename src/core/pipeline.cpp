#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "util/atomic_file.hpp"
#include "util/memory.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ngs::core {

namespace {

/// Unique sibling name for the transient index of a budget run
/// that is not also saving an index (removed when the run ends).
std::string transient_index_path(const std::string& dir) {
  static std::atomic<unsigned long> seq{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return dir + "/ngs_spectrum_" + std::to_string(pid) + "_" +
         std::to_string(seq.fetch_add(1)) + ".ngsx";
}

/// Reads held in one executor run's own buffers (queued, in work, or
/// awaiting the in-order consumer). Only the producer raises the count,
/// so only it writes the peak; read peak() after the run has joined.
class ReadGauge {
 public:
  void add(std::size_t n) {
    const std::size_t now =
        count_.fetch_add(n, std::memory_order_relaxed) + n;
    peak_ = std::max(peak_, now);
  }
  void sub(std::size_t n) { count_.fetch_sub(n, std::memory_order_relaxed); }
  std::size_t peak() const noexcept { return peak_; }

 private:
  std::atomic<std::size_t> count_{0};
  std::size_t peak_ = 0;
};

/// One batch of the input flowing reader → workers → consumer: the
/// parsed reads and, in pass 1, the fold of what a worker computed from
/// them; in pass 2, their corrections.
struct Batch {
  std::vector<seq::Read> in;
  std::vector<seq::Read> out;
  seq::BatchFold fold;
};

/// Spent batches handed back from the in-order consumer to the
/// producer, so steady state reuses their buffers instead of
/// allocating new ones.
class Recycler {
 public:
  /// Replaces `batch` with a spent one, if there is one.
  void take(Batch& batch) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spent_.empty()) return;
    batch = std::move(spent_.back());
    spent_.pop_back();
  }
  void give(Batch&& batch) {
    std::lock_guard<std::mutex> lock(mutex_);
    spent_.push_back(std::move(batch));
  }

 private:
  std::mutex mutex_;
  std::vector<Batch> spent_;
};

/// What one streamed pass over the input cost and saw.
struct Ingest {
  util::PipelineExecutorStats executor;
  std::uint64_t records_skipped = 0;
  /// Largest number of parsed reads held in the pass's own buffers.
  std::size_t peak_buffered_reads = 0;
};

/// One pass over open_input(), the only loop that reads the input: the
/// executor's reader thread parses batches of options.batch_size ahead,
/// `workers` threads run `work` on each batch, and this thread, the
/// in-order consumer, hands each batch to `consume`. Only this thread
/// runs `consume`, so whatever it feeds needs no locking. `pass` names
/// the pass in the reader's fault.
Ingest stream_batches(
    const PipelineOptions& options, const StreamFactory& open_input,
    const char* pass, std::size_t workers,
    const std::function<void(Batch&, std::size_t worker)>& work,
    const std::function<void(Batch&)>& consume) {
  const std::size_t batch_size = std::max<std::size_t>(1, options.batch_size);
  auto is = open_input();
  io::FastqStreamReader reader(*is);
  reader.set_bad_record_policy(options.on_bad_record);

  const std::string read_failed = std::string(pass) + " read-ahead failed";
  util::PipelineExecutor<Batch> executor({.workers = workers});
  Recycler recycler;
  ReadGauge gauge;
  Ingest ingest;
  ingest.executor = executor.run(
      [&](Batch& batch) {
        fault::maybe_fail(fault::sites::kPipelineReader, ErrorKind::kIo,
                          read_failed);
        recycler.take(batch);
        if (reader.read_batch(batch.in, batch_size) == 0) return false;
        gauge.add(batch.in.size());
        return true;
      },
      work,
      [&](Batch&& batch) {
        const std::size_t n = batch.in.size();
        consume(batch);
        gauge.sub(n);
        batch.in.clear();
        batch.out.clear();
        batch.fold = nullptr;
        recycler.give(std::move(batch));
      });
  ingest.records_skipped = reader.records_skipped();
  ingest.peak_buffered_reads = gauge.peak();
  return ingest;
}

/// Workers of every pass: options.threads, or the size of the shared
/// default pool.
std::size_t pass_workers(const PipelineOptions& options) {
  return options.threads > 0 ? options.threads : util::default_pool().size();
}

/// One pass-1 read of open_input() as a seq::ReadPass run: `workers`
/// executor workers run `work` on the batches, and this thread adds each
/// batch to `input` (when given) and then runs its fold, in input order.
Ingest read_pass(const PipelineOptions& options,
                 const StreamFactory& open_input, std::size_t workers,
                 const seq::BatchWork& work, InputSummary* input) {
  return stream_batches(
      options, open_input, "pass-1", workers,
      [&work](Batch& batch, std::size_t worker) {
        batch.fold = work(batch.in, worker);
      },
      [input](Batch& batch) {
        if (input != nullptr) {
          for (const auto& r : batch.in) input->add(r);
        }
        if (batch.fold) batch.fold();
      });
}

/// Folds one more pass's executor telemetry into `total`: times and
/// items add up, peaks take the larger.
void add_pass(util::PipelineExecutorStats& total,
              const util::PipelineExecutorStats& pass) {
  total.workers = std::max(total.workers, pass.workers);
  total.items += pass.items;
  total.queue_peak = std::max(total.queue_peak, pass.queue_peak);
  total.reorder_peak = std::max(total.reorder_peak, pass.reorder_peak);
  total.reader_busy_seconds += pass.reader_busy_seconds;
  total.reader_stall_seconds += pass.reader_stall_seconds;
  total.worker_stall_seconds += pass.worker_stall_seconds;
  total.writer_busy_seconds += pass.writer_busy_seconds;
  total.writer_stall_seconds += pass.writer_stall_seconds;
  total.elapsed_seconds += pass.elapsed_seconds;
}

}  // namespace

TransientFile::TransientFile(TransientFile&& other) noexcept
    : path(std::exchange(other.path, {})) {}

TransientFile& TransientFile::operator=(TransientFile&& other) noexcept {
  std::swap(path, other.path);  // `other` removes our old file
  return *this;
}

TransientFile::~TransientFile() {
  if (!path.empty()) std::remove(path.c_str());
}

SpectrumStep build_spectrum(const PipelineOptions& options, int k,
                            bool both_strands,
                            const StreamFactory& open_input) {
  SpectrumStep step;
  if (!options.load_index_path.empty()) {
    // Pass 1 replaced by the persisted index: mmap it, cross-check the
    // build parameters, and hand over the zero-copy spectrum view. The
    // input summary comes from the index header (it was recorded from
    // the same reads at build time), so downstream sizing — and
    // therefore output — matches a fresh run.
    const auto index = index::SpectrumIndex::load(options.load_index_path);
    const auto& info = index.info();
    if (info.build.k != k) {
      std::ostringstream os;
      os << options.load_index_path << ": index was built with k="
         << info.build.k << " but this run needs k=" << k;
      throw std::invalid_argument(os.str());
    }
    if (info.build.both_strands != both_strands) {
      std::ostringstream os;
      os << options.load_index_path << ": index was built "
         << (info.build.both_strands ? "with" : "without")
         << " reverse-complement strands but this run expects the "
            "opposite";
      throw std::invalid_argument(os.str());
    }
    step.input.reads = info.build.input_reads;
    step.input.bases = info.build.input_bases;
    step.input.max_read_length = info.build.max_read_length;
    step.loaded = true;
    step.index_checksum = info.checksum;
    step.spectrum = index.share_spectrum();
    return step;
  }

  std::optional<util::ThreadPool> own_pool;
  if (options.threads > 0) own_pool.emplace(options.threads);
  kspec::SpillOptions spill;
  spill.memory_budget_bytes = options.memory_budget_bytes;
  spill.spill_dir = options.spill_dir;
  const std::size_t workers = pass_workers(options);
  kspec::ChunkedSpectrumBuilder builder(
      k, both_strands, options.spectrum_batch_instances,
      own_pool ? &*own_pool : nullptr, spill, workers);
  const Ingest ingest = read_pass(
      options, open_input, workers,
      [&builder](std::span<const seq::Read> batch, std::size_t worker) {
        return builder.count(batch, worker);
      },
      &step.input);
  step.ingest = ingest.executor;
  step.records_skipped = ingest.records_skipped;
  step.peak_buffered_reads = ingest.peak_buffered_reads;

  index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = both_strands;
  build.input_reads = step.input.reads;
  build.input_bases = step.input.bases;
  build.max_read_length =
      static_cast<std::uint32_t>(step.input.max_read_length);
  const std::string& save_path = options.save_index_path;
  if (builder.spilled()) {
    // Out-of-core finalization: stream the sorted prefix bins straight
    // into an index file — the full spectrum never exists in this
    // process — then serve the spectrum from the file's mapping. Saved
    // when the caller asked for an index; otherwise a transient file
    // removed with the step.
    builder.flush_spill();
    step.spilled = true;
    step.spilled_bytes = builder.spill_bytes();
    step.spill_bins = builder.spill_nonempty_bins();
    const std::string path =
        save_path.empty() ? transient_index_path(builder.spill_dir())
                          : save_path;
    if (save_path.empty()) step.transient_index.path = path;
    {
      index::ShardedIndexWriter writer(path, build,
                                       builder.spill_shard_bits(),
                                       step.spill_bins);
      builder.finish_spilled(
          [&writer](kspec::ChunkedSpectrumBuilder::SortedRun&& run) {
            writer.append_shard(run.prefix, run.codes, run.counts);
          });
      step.index_checksum = writer.finish();
    }
    step.saved = !save_path.empty();
    step.spectrum = index::SpectrumIndex::load(path).share_spectrum();
  } else {
    step.spectrum = builder.finish();
    if (!save_path.empty()) {
      step.index_checksum =
          index::write_spectrum_index(save_path, step.spectrum, build);
      step.saved = true;
    }
  }
  step.peak_tracked_bytes = builder.peak_tracked_bytes();
  return step;
}

CorrectionPipeline::CorrectionPipeline(std::unique_ptr<Corrector> corrector,
                                       PipelineOptions options)
    : corrector_(std::move(corrector)), options_(options) {
  if (!corrector_) {
    throw std::invalid_argument("CorrectionPipeline: null corrector");
  }
  if (options_.batch_size == 0) options_.batch_size = 1;
}

PipelineResult CorrectionPipeline::run_file(const std::string& in_fastq,
                                            const std::string& out_fastq) {
  // Atomic output via the shared util::AtomicFile protocol (the same
  // one the index writers use): correct into a uniquely named sibling
  // temp file and rename over the target only on success, so a failed
  // or interrupted run never leaves a truncated corrected FASTQ where
  // downstream tooling expects a complete one.
  util::AtomicFileOptions atomic_options;
  atomic_options.error_site = fault::sites::kOutputWrite;
  util::AtomicFile out_file(out_fastq, atomic_options);
  PipelineResult result;
  out_file.write_through([&](std::ostream& os) {
    result = run(
        [&in_fastq]() -> std::unique_ptr<std::istream> {
          return io::open_input_stream(in_fastq);
        },
        os);
  });
  out_file.commit();  // throws kIo and removes the temp on failure
  return result;
}

PipelineResult CorrectionPipeline::run(const StreamFactory& open_input,
                                       std::ostream& out) {
  PipelineResult result;
  const std::size_t batch_size = options_.batch_size;

  // Transient input-open failures are absorbed by a bounded
  // exponential-backoff retry; the count is surfaced as io_retries.
  const fault::RetryPolicy retry_policy{
      std::max(1, options_.io_retry_attempts),
      std::max(0, options_.io_retry_backoff_ms)};
  const StreamFactory open_with_retry = [&]() {
    return fault::with_retry(
        retry_policy,
        [&]() -> std::unique_ptr<std::istream> {
          // The transient site models an open that succeeds on retry
          // (NFS hiccup, fd-limit race) and is absorbed by the budget;
          // the hard open site models a missing/unreadable input.
          fault::maybe_fail(fault::sites::kOpenInputTransient,
                            ErrorKind::kIo, "cannot open input",
                            /*transient=*/true);
          fault::maybe_fail(fault::sites::kFastqOpen, ErrorKind::kIo,
                            "cannot open input");
          return open_input();
        },
        &result.io_retries);
  };
  // One batch-write primitive for both pass-2 shapes: injectable, and
  // any stream failure is a typed I/O error instead of a silent bad()
  // bit.
  const auto write_batch = [&out](std::span<const seq::Read> reads) {
    fault::maybe_fail(fault::sites::kOutputWrite, ErrorKind::kIo,
                      "error writing corrected output");
    io::write_fastq(out, reads);
    if (!out) {
      throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                  "error writing corrected output batch");
    }
  };

  // Phase 1: the spectrum step for spectrum methods, the corrector's own
  // passes for other batch methods, else the whole input buffered.
  // `spectrum` lives until pass 2 ends, since it may keep a transient
  // index on disk that pass 2 queries.
  SpectrumStep spectrum;
  seq::ReadSet all;
  if (corrector_->spectrum_k() > 0) {
    spectrum = build_spectrum(options_, corrector_->spectrum_k(),
                              corrector_->spectrum_both_strands(),
                              open_with_retry);
    result.input = spectrum.input;
    result.pass1_skipped = spectrum.loaded;
    if (spectrum.loaded || spectrum.saved) {
      result.index_path = spectrum.loaded ? options_.load_index_path
                                          : options_.save_index_path;
      result.index_checksum = spectrum.index_checksum;
    }
    result.pass1_overlap = spectrum.ingest;
    result.peak_buffered_reads = spectrum.peak_buffered_reads;
    result.reads_skipped = spectrum.records_skipped;
    result.spectrum_spilled = spectrum.spilled;
    result.spectrum_spilled_bytes = spectrum.spilled_bytes;
    result.spectrum_spill_bins = spectrum.spill_bins;
    result.spectrum_peak_tracked_bytes = spectrum.peak_tracked_bytes;
    corrector_->build_from_spectrum(std::move(spectrum.spectrum),
                                    result.input);
  } else {
    if (!options_.load_index_path.empty() ||
        !options_.save_index_path.empty() ||
        options_.memory_budget_bytes > 0) {
      throw std::invalid_argument(
          std::string(corrector_->method()) +
          ": phase 1 is not a pure k-spectrum, so a spectrum index cannot "
          "replace or capture it and a memory budget cannot bound it "
          "(--load-index, --save-index and --memory-budget-mb apply to "
          "streaming methods only)");
    }
    // One streamed pass of phase 1 on pass 2's worker count: the input
    // summary comes from the first, executor telemetry adds up over all
    // of them, and a malformed record every pass drops counts once.
    const std::size_t workers = pass_workers(options_);
    std::size_t passes = 0;
    const seq::ReadPass pass{workers, [&](const seq::BatchWork& work) {
      const bool first = passes++ == 0;
      const Ingest ingest = read_pass(options_, open_with_retry, workers,
                                      work, first ? &result.input : nullptr);
      add_pass(result.pass1_overlap, ingest.executor);
      result.peak_buffered_reads =
          std::max(result.peak_buffered_reads, ingest.peak_buffered_reads);
      result.reads_skipped =
          std::max(result.reads_skipped, ingest.records_skipped);
    }};
    if (corrector_->supports_batches()) {
      // The corrector reads the input in as many passes as it needs.
      corrector_->build_streamed(pass);
    } else {
      pass([&all](std::span<const seq::Read> batch, std::size_t) {
        return [&all, batch] {
          all.reads.insert(all.reads.end(), batch.begin(), batch.end());
        };
      });
      result.peak_buffered_reads = all.reads.size();
      corrector_->build(all);
    }
  }

  // Phase 2.
  if (!corrector_->supports_batches()) {
    // Whole-set methods correct the buffered input natively.
    const util::Timer pass2_timer;
    const auto corrected = corrector_->correct_all(all, result.report);
    result.pass2_seconds = pass2_timer.seconds();
    for (std::size_t offset = 0; offset < corrected.size();
         offset += batch_size) {
      const std::size_t n = std::min(batch_size, corrected.size() - offset);
      write_batch(std::span<const seq::Read>(corrected.data() + offset, n));
      ++result.batches;
    }
  } else {
    // The input streamed once more: `workers` correct batches, this
    // thread writes them in order.
    const std::size_t workers = pass_workers(options_);
    // One scratch per executor worker for the whole run: worker ids are
    // stable, so each slot has exactly one user.
    std::vector<std::unique_ptr<BatchScratch>> scratch(workers);
    for (auto& s : scratch) s = corrector_->make_scratch();
    std::mutex report_mutex;
    const Ingest pass2 = stream_batches(
        options_, open_with_retry, "pass-2", workers,
        [&](Batch& batch, std::size_t worker) {
          CorrectionReport local;
          batch.out.reserve(batch.in.size());
          correct_span(batch.in, batch.out, local, scratch[worker].get());
          std::lock_guard<std::mutex> lock(report_mutex);
          result.report.merge(local);
        },
        [&](Batch& batch) {
          fault::maybe_fail(fault::sites::kPipelineWriter, ErrorKind::kIo,
                            "pass-2 ordered write failed");
          write_batch(std::span<const seq::Read>(batch.out));
          ++result.batches;
        });
    result.pass2_overlap = pass2.executor;
    result.pass2_seconds = pass2.executor.elapsed_seconds;
    result.peak_buffered_reads =
        std::max(result.peak_buffered_reads, pass2.peak_buffered_reads);
    // A genuinely malformed record is dropped by every pass, so take the
    // max rather than the sum (summing would double-count it; taking
    // only pass 2 would hide a record dropped by phase 1 alone).
    result.reads_skipped =
        std::max(result.reads_skipped, pass2.records_skipped);
  }
  out.flush();
  if (!out) {
    throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                "CorrectionPipeline: error writing output");
  }
  corrector_->annotate_report(result.report);
  result.reads_failed = result.report.extra("reads_failed");
  result.peak_rss_bytes = util::peak_rss_bytes();
  return result;
}

void CorrectionPipeline::correct_span(std::span<const seq::Read> in,
                                      std::vector<seq::Read>& out,
                                      CorrectionReport& local,
                                      BatchScratch* scratch) {
  // Precondition: `out` empty and `local` fresh — both are per-block,
  // so the salvage path below can discard partial tallies wholesale.
  bool block_ok = true;
  try {
    fault::maybe_fail(fault::sites::kPass2Batch, ErrorKind::kInternal,
                      "pass-2 batch correction failed");
    corrector_->correct_batch(in, out, local, scratch);
    if (out.size() != in.size()) {
      throw Error(ErrorKind::kInternal, fault::sites::kPass2Batch,
                  "correct_batch returned a different number of reads");
    }
  } catch (...) {
    block_ok = false;
  }
  if (block_ok) return;
  // Graceful degradation: re-correct the block one read at a time.
  // A read whose correction still throws passes through uncorrected
  // (counted as reads_failed) — one bad read degrades itself, not
  // the batch, not the run.
  local = CorrectionReport{};  // discard partial batch tallies
  out.clear();
  std::vector<seq::Read> one;
  for (std::size_t i = 0; i < in.size(); ++i) {
    one.clear();
    try {
      fault::maybe_fail(fault::sites::kPass2Read, ErrorKind::kInternal,
                        "pass-2 read correction failed");
      corrector_->correct_batch(in.subspan(i, 1), one, local, scratch);
      if (one.size() != 1) {
        throw Error(ErrorKind::kInternal, fault::sites::kPass2Read,
                    "correct_batch returned a different number of reads");
      }
      out.push_back(std::move(one[0]));
    } catch (...) {
      out.push_back(in[i]);
      ++local.reads;
      local.bump("reads_failed", 1);
    }
  }
  local.bump("batches_salvaged", 1);
}

}  // namespace ngs::core
