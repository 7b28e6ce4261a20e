// ngs-index — build, inspect, and verify persistent spectrum indexes
// (the ngs::index on-disk format), decoupling pass-1 k-spectrum
// construction from correction runs the way RECKONER decouples its KMC
// database build:
//
//   ngs-index build  --in reads.fastq --out spectrum.ngsx
//                    --k 12 --both-strands 1 --threads 8
//   ngs-index info   --index spectrum.ngsx
//   ngs-index verify --index spectrum.ngsx
//
// `build` runs the correction pipeline's spectrum step
// (core::build_spectrum: the bounded-memory chunked builder, never
// materializing the read set) and writes atomically; `info`
// prints the header/provenance without touching payload pages; `verify`
// recomputes every checksum and validates the spectrum invariants,
// exiting non-zero with a distinct message per corruption mode.
//
// A saved index feeds `ngs-correct --load-index`, which mmaps it and
// skips pass 1 entirely.
//
// Exit codes: 0 success, 2 usage/config error, 3 input open/parse
// error, 4 index error (including verify failures), 1 internal error.

#include <cstdio>
#include <iostream>
#include <string>

#include "core/pipeline.hpp"
#include "fault/tool.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastq_stream.hpp"
#include "seq/kmer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

using namespace ngs;

namespace {

const char* section_label(index::SectionId id) {
  switch (id) {
    case index::SectionId::kCodes: return "codes";
    case index::SectionId::kCounts: return "counts";
    case index::SectionId::kBucketStarts: return "bucket_starts";
  }
  return "unknown";
}

void print_info(const index::IndexInfo& info, const std::string& path) {
  std::cout << "index: " << path << "\n"
            << "  format_version: " << info.format_version << "\n"
            << "  k: " << info.build.k << "\n"
            << "  both_strands: " << (info.build.both_strands ? 1 : 0) << "\n"
            << "  distinct_kmers: " << info.distinct << "\n"
            << "  total_instances: " << info.total_instances << "\n"
            << "  prefix_bits: " << info.prefix_bits << "\n"
            << "  input_reads: " << info.build.input_reads << "\n"
            << "  input_bases: " << info.build.input_bases << "\n"
            << "  max_read_length: " << info.build.max_read_length << "\n"
            << "  file_bytes: " << info.file_bytes << "\n"
            << "  checksum: 0x" << std::hex << info.checksum << std::dec
            << "\n"
            << "  sections:\n";
  for (const auto& s : info.sections) {
    std::cout << "    " << section_label(s.id) << ": offset=" << s.offset
              << " bytes=" << s.bytes << " checksum=0x" << std::hex
              << s.checksum << std::dec << "\n";
  }
}

/// Machine-readable `info --json`: one JSON object with the header
/// fields and every section's extent and checksum. Checksums are
/// emitted as hex strings (they exceed the interoperable 2^53 integer
/// range); everything else is a number.
void print_info_json(const index::IndexInfo& info, const std::string& path) {
  const auto hex = [](std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::cout << "{\n"
            << "  \"path\": \"" << escape(path) << "\",\n"
            << "  \"format_version\": " << info.format_version << ",\n"
            << "  \"k\": " << info.build.k << ",\n"
            << "  \"both_strands\": "
            << (info.build.both_strands ? "true" : "false") << ",\n"
            << "  \"distinct_kmers\": " << info.distinct << ",\n"
            << "  \"total_instances\": " << info.total_instances << ",\n"
            << "  \"prefix_bits\": " << info.prefix_bits << ",\n"
            << "  \"input_reads\": " << info.build.input_reads << ",\n"
            << "  \"input_bases\": " << info.build.input_bases << ",\n"
            << "  \"max_read_length\": " << info.build.max_read_length
            << ",\n"
            << "  \"file_bytes\": " << info.file_bytes << ",\n"
            << "  \"checksum\": \"" << hex(info.checksum) << "\",\n"
            << "  \"sections\": [";
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const auto& s = info.sections[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "    {\"id\": \"" << section_label(s.id) << "\""
              << ", \"offset\": " << s.offset << ", \"bytes\": " << s.bytes
              << ", \"checksum\": \"" << hex(s.checksum) << "\"}";
  }
  std::cout << "\n  ]\n}\n";  // a valid table has at least two rows
}

void run_build(const util::CliParser& cli) {
  const std::string in = cli.required("in");
  const std::string out = cli.required("out");
  const int k = static_cast<int>(cli.get_size("k", 12, 1, seq::kMaxK));
  const bool both_strands = cli.get_size("both-strands", 1, 0, 1) != 0;
  // The same pass 1 as ngs-correct --save-index, so both write the same
  // bytes from the same reads.
  core::PipelineOptions options;
  options.threads = cli.get_size("threads", 0);
  options.batch_size = cli.get_size("batch-size", 4096, 1);
  options.memory_budget_bytes =
      cli.get_size("memory-budget-mb", 0, 0, SIZE_MAX >> 20) << 20;
  options.spill_dir = cli.get("spill-dir");
  options.save_index_path = out;

  util::Timer timer;
  const auto step = core::build_spectrum(
      options, k, both_strands, [&in] { return io::open_input_stream(in); });
  std::cerr << "built k=" << k << " spectrum of " << step.spectrum.size()
            << " distinct kmers (" << step.spectrum.total_instances()
            << " instances) from " << step.input.reads << " reads in "
            << timer.seconds() << "s\n";
  if (step.spilled) {
    std::cerr << "spilled " << step.spilled_bytes << " bytes into "
              << step.spill_bins << " spill bins (peak tracked memory "
              << step.peak_tracked_bytes << " bytes)\n";
  }
  std::cerr << "wrote " << out << " (checksum 0x" << std::hex
            << step.index_checksum << std::dec << ")\n";
}

void run_info(const util::CliParser& cli) {
  const std::string path = cli.required("index");
  const auto info = index::SpectrumIndex::read_info(path);
  if (cli.has("json")) {
    print_info_json(info, path);
  } else {
    print_info(info, path);
  }
}

void run_verify(const util::CliParser& cli) {
  const std::string path = cli.required("index");
  util::Timer timer;
  index::LoadOptions options;
  options.verify_checksums = true;
  options.validate_payload = true;
  const auto index = index::SpectrumIndex::load(path, options);
  std::cerr << "ok: " << path << " (" << index.info().distinct
            << " distinct kmers, checksum 0x" << std::hex
            << index.info().checksum << std::dec << ", "
            << (index.info().mapped ? "mmap" : "owned buffer")
            << ", verified in " << timer.seconds() << "s)\n";
}

/// The parser of `subcommand`: its name and options, or a bare
/// "ngs-index" parser for an unknown subcommand, which main rejects.
util::CliParser make_cli(const std::string& subcommand) {
  const bool known = subcommand == "build" || subcommand == "info" ||
                     subcommand == "verify";
  util::CliParser cli(known ? "ngs-index " + subcommand : "ngs-index",
                      "persistent k-spectrum index tool; usage: ngs-index "
                      "<build|info|verify> [options]");
  if (!known) return cli;
  if (subcommand == "build") {
    cli.add_option("in", "input FASTQ", true, "");
    cli.add_option("out", "output index path", true, "");
    cli.add_option("k", "kmer length in [1, 32]", true, "12");
    cli.add_option("both-strands",
                   "include reverse-complement strands (1) or not (0)", true,
                   "1");
    cli.add_option("threads",
                   "workers that count the streamed batches, and threads of "
                   "the final merge (0 = all cores)",
                   true, "0");
    cli.add_option("batch-size", "reads per streamed parse batch", true,
                   "4096");
    cli.add_option("memory-budget-mb",
                   "bound the build's own memory to N MiB, spilling the "
                   "spectrum to disk bins; the index bytes are the same "
                   "(0 = unlimited)",
                   true, "0");
    cli.add_option("spill-dir",
                   "directory for spill bins under --memory-budget-mb "
                   "(default: system temp dir)",
                   true, "");
  } else {
    cli.add_option("index", "index file to inspect", true, "");
    if (subcommand == "info") {
      cli.add_option("json",
                     "emit the header/section dump as JSON on stdout",
                     false);
    }
  }
  cli.add_option("fault-spec",
                 "fault-injection spec (also read from NGS_FAULT_SPEC; "
                 "testing only)",
                 true, "");
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  // The subcommand picks the parser, which reads only the arguments
  // after it. Without one (`ngs-index --help`) it reads them all.
  const std::string subcommand = argc > 1 ? argv[1] : "";
  const int skip = subcommand.empty() || subcommand[0] == '-' ? 0 : 1;
  util::CliParser cli = make_cli(subcommand);
  return fault::run_tool(cli, argc - skip, argv + skip, [&] {
    if (subcommand == "build") return run_build(cli);
    if (subcommand == "info") return run_info(cli);
    if (subcommand == "verify") return run_verify(cli);
    if (subcommand == "help") {  // `ngs-index help` is `ngs-index --help`
      std::cout << cli.usage();
      return;
    }
    throw Error(ErrorKind::kConfig, "cli",
                "expected a subcommand (build, info or verify), got '" +
                    subcommand + "'");
  });
}
