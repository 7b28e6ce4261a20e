#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
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

std::string checksum_hex(std::uint64_t checksum) {
  std::ostringstream os;
  os << "0x" << std::hex << checksum;
  return os.str();
}

/// Unique sibling name for the transient sharded index of a budget run
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

/// Spent executor items handed back from the in-order consumer to the
/// producer, so steady state reuses their buffers instead of
/// allocating new ones.
template <typename T>
class Recycler {
 public:
  /// Replaces `item` with a spent one, if there is one.
  void take(T& item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spent_.empty()) return;
    item = std::move(spent_.back());
    spent_.pop_back();
  }
  void give(T&& item) {
    std::lock_guard<std::mutex> lock(mutex_);
    spent_.push_back(std::move(item));
  }

 private:
  std::mutex mutex_;
  std::vector<T> spent_;
};

/// One unit of pass 2: a batch of reads flowing reader → workers →
/// writer through the PipelineExecutor. `in` views either `owned`
/// (streamed input) or the buffered ReadSet; moving a chunk moves the
/// vectors, which keeps their heap buffers — and therefore the span —
/// valid.
struct Pass2Chunk {
  std::vector<seq::Read> owned;
  std::span<const seq::Read> in;
  std::vector<seq::Read> out;
};

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
  kspec::ChunkedSpectrumBuilder builder(
      k, both_strands, options.spectrum_batch_instances,
      own_pool ? &*own_pool : nullptr, spill);
  const std::size_t batch_size = std::max<std::size_t>(1, options.batch_size);
  auto is = open_input();
  io::FastqStreamReader reader(*is);
  reader.set_bad_record_policy(options.on_bad_record);

  // The executor's reader thread parses batches ahead while this thread
  // (its in-order consumer) feeds the builder; the one worker passes
  // batches through. Only this thread touches the builder, so it needs
  // no locking.
  using Batch = std::vector<seq::Read>;
  util::PipelineExecutor<Batch> executor({.workers = 1});
  Recycler<Batch> recycler;
  ReadGauge gauge;
  step.ingest = executor.run(
      [&](Batch& batch) {
        fault::maybe_fail(fault::sites::kPipelineReader, ErrorKind::kIo,
                          "pass-1 read-ahead failed");
        recycler.take(batch);
        if (reader.read_batch(batch, batch_size) == 0) return false;
        gauge.add(batch.size());
        return true;
      },
      [](Batch&, std::size_t) {},
      [&](Batch&& batch) {
        builder.add_read_batch(batch);
        for (const auto& r : batch) step.input.add(r);
        gauge.sub(batch.size());
        batch.clear();
        recycler.give(std::move(batch));
      });
  step.records_skipped = reader.records_skipped();
  step.peak_buffered_reads = gauge.peak();

  index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = both_strands;
  build.input_reads = step.input.reads;
  build.input_bases = step.input.bases;
  build.max_read_length =
      static_cast<std::uint32_t>(step.input.max_read_length);
  const std::string& save_path = options.save_index_path;
  if (builder.spilled()) {
    builder.flush_spill();
    step.spilled = true;
    step.spilled_bytes = builder.spill_bytes();
  }
  if (step.spilled && builder.spill_nonempty_bins() > 1) {
    // Out-of-core finalization: stream the sorted prefix bins straight
    // into a sharded index file — the full spectrum never exists in
    // this process — then serve the spectrum from the file's mapped
    // shards. Saved when the caller asked for an index; otherwise a
    // transient file removed with the step.
    const std::string path =
        save_path.empty() ? transient_index_path(builder.spill_dir())
                          : save_path;
    if (save_path.empty()) step.transient_index.path = path;
    {
      index::ShardedIndexWriter writer(path, build,
                                       builder.spill_shard_bits(),
                                       builder.spill_nonempty_bins());
      builder.finish_spilled(
          [&writer](kspec::ChunkedSpectrumBuilder::SortedRun&& run) {
            writer.append_shard(run.prefix, std::move(run.codes),
                                std::move(run.counts));
          });
      step.index_checksum = writer.finish();
    }
    step.saved = !save_path.empty();
    const auto index = index::SpectrumIndex::load(path);
    step.shards = index.info().shard_count;
    step.spectrum = index.share_spectrum();
  } else {
    // A single non-empty spill bin lands here too: finish() rebuilds
    // the monolithic arrays, so a save still writes version-1 bytes.
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

CorrectionPipeline::~CorrectionPipeline() {
  for (std::size_t i = 0; i < scratch_slot_count_; ++i) {
    delete scratch_slots_[i].load(std::memory_order_relaxed);
  }
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
  {
    std::ofstream os(out_file.temp_path());
    if (!os) {
      throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                  "cannot open for writing: " + out_file.temp_path());
    }
    result = run(
        [&in_fastq]() -> std::unique_ptr<std::istream> {
          return io::open_input_stream(in_fastq);
        },
        os);
    os.close();
    if (!os) {
      throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                  "error finalizing output: " + out_file.temp_path());
    }
  }
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

  // Phase 1: the spectrum step for streaming methods, else the whole
  // input buffered. `spectrum` lives until pass 2 ends, since it may
  // keep a transient sharded index on disk that pass 2 queries.
  SpectrumStep spectrum;
  seq::ReadSet all;
  result.streamed = corrector_->spectrum_k() > 0;
  if (result.streamed) {
    spectrum = build_spectrum(options_, corrector_->spectrum_k(),
                              corrector_->spectrum_both_strands(),
                              open_with_retry);
    result.input = spectrum.input;
    result.pass1_skipped = spectrum.loaded;
    result.pass1_overlap = spectrum.ingest;
    result.peak_buffered_reads = spectrum.peak_buffered_reads;
    result.spectrum_spilled = spectrum.spilled;
    result.spectrum_spilled_bytes = spectrum.spilled_bytes;
    result.spectrum_shards = spectrum.shards;
    result.spectrum_peak_tracked_bytes = spectrum.peak_tracked_bytes;
    corrector_->build_from_spectrum(std::move(spectrum.spectrum),
                                    result.input);
  } else {
    if (!options_.load_index_path.empty() ||
        !options_.save_index_path.empty()) {
      throw std::invalid_argument(
          std::string(corrector_->method()) +
          ": phase 1 is not a pure k-spectrum, so a spectrum index cannot "
          "replace or capture it (--load-index/--save-index apply to "
          "streaming methods only)");
    }
    auto is = open_with_retry();
    io::FastqStreamReader reader(*is);
    reader.set_bad_record_policy(options_.on_bad_record);
    while (reader.read_batch(all.reads, batch_size) > 0) {
    }
    result.reads_skipped = reader.records_skipped();
    for (const auto& r : all.reads) result.input.add(r);
    result.peak_buffered_reads = all.reads.size();
    corrector_->build(all);
  }

  // Phase 2.
  double pass2_seconds = 0.0;
  if (!result.streamed && !corrector_->supports_batches()) {
    // Whole-set methods correct the buffered input natively.
    const util::Timer pass2_timer;
    const auto corrected = corrector_->correct_all(all, result.report);
    pass2_seconds = pass2_timer.seconds();
    for (std::size_t offset = 0; offset < corrected.size();
         offset += batch_size) {
      const std::size_t n = std::min(batch_size, corrected.size() - offset);
      write_batch(std::span<const seq::Read>(corrected.data() + offset, n));
      ++result.batches;
    }
  } else {
    // Reader thread → bounded queue → correction workers → in-order
    // writer (this thread). The reader re-streams the input, or slices
    // the buffered ReadSet into chunks that view it without copies.
    std::unique_ptr<std::istream> is;
    std::optional<io::FastqStreamReader> reader;
    if (result.streamed) {
      is = open_with_retry();
      reader.emplace(*is);
      reader->set_bad_record_policy(options_.on_bad_record);
    }
    std::size_t offset = 0;
    const auto fill = [&](Pass2Chunk& chunk) {
      if (reader) {
        if (reader->read_batch(chunk.owned, batch_size) == 0) return false;
        chunk.in = std::span<const seq::Read>(chunk.owned);
        return true;
      }
      if (offset >= all.reads.size()) return false;
      const std::size_t n = std::min(batch_size, all.reads.size() - offset);
      chunk.in = std::span<const seq::Read>(all.reads.data() + offset, n);
      offset += n;
      return true;
    };

    const std::size_t workers = options_.threads > 0
                                    ? options_.threads
                                    : util::default_pool().size();
    ensure_scratch_slots(workers);
    util::PipelineExecutor<Pass2Chunk> executor({.workers = workers});
    Recycler<Pass2Chunk> recycler;
    std::mutex report_mutex;
    ReadGauge gauge;
    result.pass2_overlap = executor.run(
        [&](Pass2Chunk& chunk) -> bool {
          fault::maybe_fail(fault::sites::kPipelineReader, ErrorKind::kIo,
                            "pass-2 read-ahead failed");
          recycler.take(chunk);
          if (!fill(chunk)) return false;
          gauge.add(chunk.in.size());
          return true;
        },
        [&](Pass2Chunk& chunk, std::size_t worker) {
          CorrectionReport local;
          auto scratch = acquire_scratch(worker);
          chunk.out.reserve(chunk.in.size());
          correct_span(chunk.in, chunk.out, local, scratch.get());
          release_scratch(std::move(scratch), worker);
          std::lock_guard<std::mutex> lock(report_mutex);
          result.report.merge(local);
        },
        [&](Pass2Chunk&& chunk) {
          fault::maybe_fail(fault::sites::kPipelineWriter, ErrorKind::kIo,
                            "pass-2 ordered write failed");
          write_batch(std::span<const seq::Read>(chunk.out));
          ++result.batches;
          gauge.sub(chunk.in.size());
          chunk.owned.clear();
          chunk.out.clear();
          chunk.in = {};
          recycler.give(std::move(chunk));
        });
    pass2_seconds = result.pass2_overlap.elapsed_seconds;
    result.peak_buffered_reads =
        std::max(result.peak_buffered_reads, gauge.peak());
    if (reader) {
      // A genuinely malformed record is dropped by both passes, so take
      // the max rather than the sum (summing would double-count it;
      // taking only pass 2 would hide a record dropped by pass 1 alone).
      result.reads_skipped =
          std::max(spectrum.records_skipped, reader->records_skipped());
    }
  }
  out.flush();
  if (!out) {
    throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                "CorrectionPipeline: error writing output");
  }
  // Standardized observability extras: every tool and bench reports the
  // same perf keys regardless of method.
  corrector_->annotate_report(result.report);
  if (spectrum.loaded || spectrum.saved) {
    result.report.bump(spectrum.loaded ? "pass1_skipped" : "index_saved", 1);
    result.report.note("index_path", spectrum.loaded
                                         ? options_.load_index_path
                                         : options_.save_index_path);
    result.report.note("index_checksum",
                       checksum_hex(spectrum.index_checksum));
  }
  if (pass2_seconds > 0.0) {
    result.report.bump(
        "pass2_reads_per_sec",
        static_cast<std::uint64_t>(static_cast<double>(result.report.reads) /
                                   pass2_seconds));
  }
  // Executor stage telemetry of each pass that ran on one: where the
  // stages' time went and how full the buffers got. Pass 1's worker
  // passes batches straight through, so parsed batches waiting for the
  // builder sit in its reorder buffer, not its input queue.
  const auto ms = [](double seconds) {
    return static_cast<std::uint64_t>(seconds * 1000.0 + 0.5);
  };
  if (const auto& s1 = result.pass1_overlap; s1.workers > 0) {
    result.report.bump("pass1_reader_stall_ms", ms(s1.reader_stall_seconds));
    result.report.bump("pass1_ingest_stall_ms", ms(s1.writer_stall_seconds));
    result.report.bump("pass1_reorder_peak", s1.reorder_peak);
  }
  if (const auto& s2 = result.pass2_overlap; s2.workers > 0) {
    result.report.bump("pass2_reader_stall_ms", ms(s2.reader_stall_seconds));
    result.report.bump("pass2_writer_stall_ms", ms(s2.writer_stall_seconds));
    result.report.bump("pass2_worker_stall_ms", ms(s2.worker_stall_seconds));
    result.report.bump("pass2_queue_peak", s2.queue_peak);
    result.report.bump("pass2_reorder_peak", s2.reorder_peak);
    result.report.bump(
        "pass2_worker_util_pct",
        static_cast<std::uint64_t>(s2.worker_utilization() * 100.0 + 0.5));
  }
  // Degradation accounting: what was dropped, passed through, or
  // retried — zero-valued keys are omitted so fault-free reports are
  // byte-identical to pre-hardening ones.
  result.reads_failed = result.report.extra("reads_failed");
  if (result.reads_skipped > 0) {
    result.report.bump("reads_skipped", result.reads_skipped);
  }
  if (result.io_retries > 0) {
    result.report.bump("io_retries", result.io_retries);
  }
  // Out-of-core telemetry, omitted on non-spilled runs so their reports
  // stay byte-identical to pre-sharding ones.
  if (result.spectrum_spilled) {
    result.report.bump("spectrum_spilled", 1);
    result.report.bump("spectrum_spill_bytes", result.spectrum_spilled_bytes);
    if (result.spectrum_shards > 0) {
      result.report.bump("spectrum_shards", result.spectrum_shards);
    }
  }
  result.peak_rss_bytes = util::peak_rss_bytes();
  return result;
}

void CorrectionPipeline::ensure_scratch_slots(std::size_t n) {
  if (n <= scratch_slot_count_) return;
  auto grown = std::make_unique<std::atomic<BatchScratch*>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    grown[i].store(i < scratch_slot_count_
                       ? scratch_slots_[i].load(std::memory_order_relaxed)
                       : nullptr,
                   std::memory_order_relaxed);
  }
  scratch_slots_ = std::move(grown);
  scratch_slot_count_ = n;
}

std::unique_ptr<BatchScratch> CorrectionPipeline::acquire_scratch(
    std::size_t hint) {
  const std::size_t n = scratch_slot_count_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (hint + i) % n;
    BatchScratch* held =
        scratch_slots_[slot].exchange(nullptr, std::memory_order_acq_rel);
    if (held != nullptr) return std::unique_ptr<BatchScratch>(held);
  }
  return corrector_->make_scratch();
}

void CorrectionPipeline::release_scratch(std::unique_ptr<BatchScratch> scratch,
                                         std::size_t hint) {
  if (scratch == nullptr) return;
  BatchScratch* raw = scratch.release();
  const std::size_t n = scratch_slot_count_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (hint + i) % n;
    BatchScratch* expected = nullptr;
    if (scratch_slots_[slot].compare_exchange_strong(
            expected, raw, std::memory_order_acq_rel)) {
      return;
    }
  }
  delete raw;  // every slot occupied: more concurrent callers than slots
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
