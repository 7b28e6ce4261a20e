// ngs-correct — correct sequencing errors in a FASTQ with any of the
// registered methods, through the two-pass streaming correction
// pipeline (bounded read buffering for spectrum-based methods, parallel
// batch correction, order-preserving batched writes).
//
//   ngs-correct --in reads.fastq --out corrected.fastq
//               --method reptile --genome-length 100000
//               --threads 8 --batch-size 4096
//
//   ngs-correct --method list       # discover registered methods
//
// Method dispatch lives entirely in core::make_corrector; this tool
// never names an individual method.
//
// Exit codes: 0 success, 2 usage/config error, 3 input open/parse
// error, 4 index error, 1 internal error.

#include <iostream>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "fault/fault.hpp"
#include "fault/tool.hpp"
#include "seq/kmer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

using namespace ngs;

namespace {

/// How `corrector` runs phase 1: from a streamed spectrum, in streamed
/// passes of its own, or over the whole input buffered.
const char* phase1_shape(const core::Corrector& corrector) {
  if (corrector.spectrum_k() > 0) return "streaming";
  return corrector.supports_batches() ? "multi-pass" : "buffered";
}

std::uint64_t to_ms(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1000.0 + 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("ngs-correct", "short-read error correction");
  cli.add_option("in", "input FASTQ", true, "");
  cli.add_option("out", "output FASTQ", true, "corrected.fastq");
  cli.add_option("method", "correction method (use 'list' to enumerate)",
                 true, "reptile");
  cli.add_option("genome-length", "genome length estimate (bp)", true,
                 "1000000");
  cli.add_option("k",
                 "kmer length in [0, 32] (0 = the method's default, or "
                 "chosen from the genome length)",
                 true, "0");
  cli.add_option("error-rate", "error-rate estimate for redeem/hybrid", true,
                 "0.01");
  cli.add_option("threads",
                 "workers of every pass: phase 1 counts k-mers and tiles "
                 "on them and pass 2 corrects on them (0 = all cores; "
                 "Reptile's final table merges and Hamming graph still run "
                 "on the shared all-core pool)",
                 true, "0");
  cli.add_option("batch-size", "reads per streamed batch", true, "4096");
  cli.add_option("tile-cache-mb",
                 "shared pass-2 tile-decision cache budget in MiB "
                 "(0 = disable memoization)",
                 true, "32");
  cli.add_option("load-index",
                 "mmap a persisted spectrum index (see ngs-index) instead "
                 "of building pass 1 (streaming methods only)",
                 true, "");
  cli.add_option("save-index",
                 "persist the pass-1 spectrum to this path for future "
                 "--load-index runs (streaming methods only)",
                 true, "");
  cli.add_option("memory-budget-mb",
                 "bound the pass-1 spectrum build's own memory to N MiB, "
                 "spilling to disk bins; output is byte-identical "
                 "(0 = unlimited; streaming methods only)",
                 true, "0");
  cli.add_option("spill-dir",
                 "directory for spill bins and the transient index "
                 "under --memory-budget-mb (default: system temp dir)",
                 true, "");
  cli.add_option("on-bad-record",
                 "malformed-FASTQ policy: fail (abort with a located "
                 "parse error) or skip (drop and count)",
                 true, "fail");
  cli.add_option("fault-spec",
                 "fault-injection spec, e.g. 'io.fastq.open=n2,seed=7' "
                 "(also read from NGS_FAULT_SPEC; testing only)",
                 true, "");
  return fault::run_tool(cli, argc, argv, [&] {
    const std::string method_name = cli.get("method", "reptile");
    if (method_name == "list") {
      for (const auto& info : core::registered_methods()) {
        std::cout << info.name << '\t'
                  << phase1_shape(*core::make_corrector(info.name, {}))
                  << '\t' << info.description << '\n';
      }
      return;
    }
    const std::string in = cli.required("in");
    core::CorrectorConfig config;
    core::PipelineOptions options;
    config.genome_length = cli.get_size("genome-length", 1000000);
    config.k = static_cast<int>(cli.get_size("k", 0, 0, seq::kMaxK));
    config.tile_cache_mb = cli.get_size("tile-cache-mb", 32);
    options.threads = cli.get_size("threads", 0);
    options.batch_size = cli.get_size("batch-size", 4096, 1);
    options.memory_budget_bytes =
        cli.get_size("memory-budget-mb", 0, 0, SIZE_MAX >> 20) << 20;
    config.error_rate = cli.get_double("error-rate", 0.01, 0.0, 1.0);
    const std::string on_bad_record = cli.get("on-bad-record", "fail");
    if (on_bad_record != "fail" && on_bad_record != "skip") {
      throw Error(ErrorKind::kConfig, "cli",
                  "--on-bad-record must be 'fail' or 'skip', got '" +
                      on_bad_record + "'");
    }
    options.on_bad_record = on_bad_record == "skip"
                                ? io::BadRecordPolicy::kSkip
                                : io::BadRecordPolicy::kFail;
    options.load_index_path = cli.get("load-index");
    options.save_index_path = cli.get("save-index");
    options.spill_dir = cli.get("spill-dir");
    core::CorrectionPipeline pipeline(
        core::make_corrector(method_name, config), options);

    util::Timer timer;
    const core::PipelineResult result = pipeline.run_file(in, cli.get("out"));
    std::cerr << "method=" << method_name << " ("
              << phase1_shape(pipeline.corrector())
              << "): " << result.report.summary() << "\n";
    if (!result.index_path.empty()) {
      std::cerr << "index: " << result.index_path << " (checksum 0x"
                << std::hex << result.index_checksum << std::dec
                << ", pass 1 "
                << (result.pass1_skipped ? "skipped — spectrum mmap-loaded"
                                         : "built and saved")
                << ")\n";
    }
    const std::uint64_t cache_hits = result.report.extra("tile_cache_hits");
    const std::uint64_t cache_misses = result.report.extra("tile_cache_misses");
    if (cache_hits + cache_misses > 0) {
      std::cerr << "tile cache: "
                << 100.0 * static_cast<double>(cache_hits) /
                       static_cast<double>(cache_hits + cache_misses)
                << "% hit rate\n";
    }
    if (result.spectrum_spilled) {
      // Every bin is counted whole, so one bin larger than the budget
      // takes the tracked peak over it.
      const bool under =
          result.spectrum_peak_tracked_bytes <= options.memory_budget_bytes;
      std::cerr << "spill: pass 1 " << (under ? "stayed under " : "went over ")
                << (options.memory_budget_bytes >> 20) << " MiB (peak tracked "
                << result.spectrum_peak_tracked_bytes << " bytes), "
                << result.spectrum_spilled_bytes << " bytes spilled into "
                << result.spectrum_spill_bins << " bins\n";
    }
    // Where each pass's executor stages waited and how full its buffers
    // got. Pass 1's workers count batches on their lanes, so counted
    // batches waiting for the consumer's fold sit in its reorder buffer.
    if (const auto& s1 = result.pass1_overlap; s1.workers > 0) {
      std::cerr << "overlap: pass 1 reader stall "
                << to_ms(s1.reader_stall_seconds) << " ms, ingest stall "
                << to_ms(s1.writer_stall_seconds) << " ms, reorder peak "
                << s1.reorder_peak << "\n";
    }
    if (const auto& s2 = result.pass2_overlap; s2.workers > 0) {
      std::cerr << "overlap: pass 2 "
                << static_cast<std::uint64_t>(s2.worker_utilization() * 100.0 +
                                              0.5)
                << "% worker utilization over " << s2.workers
                << " workers (reader stall " << to_ms(s2.reader_stall_seconds)
                << " ms, writer stall " << to_ms(s2.writer_stall_seconds)
                << " ms, worker stall " << to_ms(s2.worker_stall_seconds)
                << " ms, queue peak " << s2.queue_peak << ", reorder peak "
                << s2.reorder_peak << ")\n";
    }
    if (result.pass2_seconds > 0.0) {
      std::cerr << "throughput: pass2_reads_per_sec="
                << static_cast<std::uint64_t>(
                       static_cast<double>(result.report.reads) /
                       result.pass2_seconds)
                << "\n";
    }
    // Degradation report: anything the run survived rather than failed.
    if (result.reads_skipped + result.reads_failed + result.io_retries > 0) {
      std::cerr << "degraded: " << result.reads_skipped
                << " malformed records skipped, " << result.reads_failed
                << " reads passed through uncorrected, " << result.io_retries
                << " transient I/O retries\n";
    }
    if (fault::Registry::instance().enabled()) {
      std::cerr << "fault injection: " << fault::Registry::instance().summary()
                << "\n";
    }
    std::cerr << "wrote " << cli.get("out") << " in " << timer.seconds()
              << "s (" << result.batches << " batches, peak "
              << result.peak_buffered_reads << " buffered reads, peak rss "
              << util::to_gib(result.peak_rss_bytes) << " GiB)\n";
  });
}
