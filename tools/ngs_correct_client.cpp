// ngs-correct-client — client for the ngs-correctd streaming correction
// daemon. Three modes:
//
//   correct (default): stream a FASTQ through the daemon and write the
//     corrected FASTQ — byte-identical to running ngs-correct offline
//     with the same method and parameters.
//
//       ngs-correct-client --socket /tmp/ngs.sock --in reads.fastq
//                          --out corrected.fastq --method sap
//
//   stats:  print the daemon's counter dump ("key=value" lines).
//   reload: ask the daemon to re-verify and hot-swap its indexes.
//
// The correct mode keeps a window of batches in flight, retries batches
// the daemon shed under load (typed BUSY) with backoff, and restores
// input order before writing — the output file is written atomically
// (temp + rename), like ngs-correct's.
//
// Exit codes: 0 success, 2 usage/config error, 3 input/daemon I/O or
// protocol error, 4 index error (e.g. failed reload), 1 internal error.

#include <iostream>
#include <string>
#include <vector>

#include "fault/tool.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "seq/kmer.hpp"
#include "service/client.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  util::CliParser cli("ngs-correct-client",
                      "client for the ngs-correctd correction daemon");
  cli.add_option("socket", "daemon socket path", true, "");
  cli.add_option("mode", "correct, stats, or reload", true, "correct");
  cli.add_option("in", "input FASTQ (correct mode)", true, "");
  cli.add_option("out", "output FASTQ (correct mode)", true,
                 "corrected.fastq");
  cli.add_option("method", "correction method served by the daemon", true,
                 "reptile");
  cli.add_option("genome-length", "genome length estimate (bp)", true,
                 "1000000");
  cli.add_option("k",
                 "kmer length in [0, 32] (0 = the method's default, or "
                 "chosen from the genome length)",
                 true, "0");
  cli.add_option("error-rate", "error-rate estimate for redeem/hybrid", true,
                 "0.01");
  cli.add_option("batch-size", "reads per request batch", true, "1024");
  cli.add_option("window",
                 "request batches kept in flight (clamped to the daemon's "
                 "per-client limit)",
                 true, "4");
  cli.add_option("busy-retry-limit",
                 "BUSY resends tolerated per batch before giving up", true,
                 "64");
  return fault::run_tool(cli, argc, argv, [&] {
    const std::string socket = cli.required("socket");
    const std::string mode = cli.get("mode", "correct");
    if (mode != "correct" && mode != "stats" && mode != "reload") {
      throw Error(ErrorKind::kConfig, "cli",
                  "--mode must be correct, stats, or reload, got '" + mode +
                      "'");
    }
    const std::string in = mode == "correct" ? cli.required("in") : "";
    service::StreamOptions stream;
    stream.batch_size = cli.get_size("batch-size", 1024, 1);
    stream.window = cli.get_size("window", 4);
    stream.busy_retry_limit = cli.get_size("busy-retry-limit", 64);
    service::HelloRequest hello;
    hello.method = cli.get("method", "reptile");
    hello.k =
        static_cast<std::int32_t>(cli.get_size("k", 0, 0, seq::kMaxK));
    hello.genome_length = cli.get_size("genome-length", 1000000);
    hello.error_rate = cli.get_double("error-rate", 0.01, 0.0, 1.0);

    service::Client client(socket);
    client.connect();

    if (mode == "stats") {
      std::cout << client.stats();
      return;
    }
    if (mode == "reload") {
      const std::uint64_t epoch = client.reload();
      std::cout << "reloaded: epoch " << epoch << "\n";
      return;
    }

    const service::HelloOk limits = client.hello(hello);

    if (limits.max_batch_reads > 0 &&
        stream.batch_size > limits.max_batch_reads) {
      stream.batch_size = limits.max_batch_reads;
    }

    // Same atomic-output protocol as ngs-correct: a failed run never
    // leaves a truncated corrected FASTQ behind.
    util::AtomicFile out_file(cli.get("out"));
    util::Timer timer;
    service::StreamResult result;
    out_file.write_through([&](std::ostream& os) {
      io::FastqStreamReader reader(in);
      result = service::correct_stream(
          client, limits, stream,
          [&](std::vector<seq::Read>& reads) {
            reads.clear();
            return reader.read_batch(reads, stream.batch_size) > 0;
          },
          [&](std::vector<seq::Read>&& corrected) {
            io::write_fastq(os, corrected);
          });
    });
    out_file.commit();

    std::cerr << "method=" << hello.method << " via daemon (epoch "
              << limits.epoch_id << ", k=" << limits.resolved_k << "): "
              << result.reads << " reads, " << result.reads_changed
              << " changed, " << result.bases_changed << " bases\n";
    if (result.busy_retries > 0) {
      std::cerr << "backpressure: " << result.busy_retries
                << " batches shed and retried\n";
    }
    std::cerr << "wrote " << cli.get("out") << " in " << timer.seconds()
              << "s (" << result.batches << " batches, window "
              << stream.window << ")\n";
  });
}
