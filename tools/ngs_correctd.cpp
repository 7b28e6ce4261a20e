// ngs-correctd — the long-lived streaming correction daemon. Maps one
// or more persisted spectrum indexes read-only at startup, shares them
// across every connection, and serves batched correction over a local
// socket (see src/service/). SIGHUP re-verifies and atomically swaps
// the indexes without dropping in-flight requests; SIGTERM/SIGINT shut
// down cleanly.
//
//   ngs-correctd --socket /tmp/ngs.sock --index 15=spectrum.ngsx
//                --reads reads.fastq --threads 4
//
// --index is repeatable (one spectrum file per k; the `k=` prefix is
// optional and, when given, is validated against the file's header).
// --reads supplies the phase-1 substrate for methods without a
// spectrum index (reptile); without it the daemon serves streaming
// methods only.
//
// Exit codes: 0 clean shutdown, 2 usage/config error, 3 input
// open/parse error, 4 index error, 1 internal error.

#include <signal.h>

#include <iostream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/tool.hpp"
#include "index/spectrum_index.hpp"
#include "seq/kmer.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace ngs;

namespace {

/// Splits an --index argument "K=PATH" (or bare "PATH") into its parts.
/// Returns the path; `declared_k` is 0 when no prefix was given. A K
/// outside [1, 32] throws ngs::Error(kConfig).
std::string split_index_arg(const std::string& arg, int& declared_k) {
  declared_k = 0;
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return arg;
  for (std::size_t i = 0; i < eq; ++i) {
    if (arg[i] < '0' || arg[i] > '9') return arg;  // path containing '='
  }
  declared_k = static_cast<int>(
      util::parse_size("index K", arg.substr(0, eq), 1, seq::kMaxK));
  return arg.substr(eq + 1);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("ngs-correctd", "streaming correction daemon");
  cli.add_option("socket", "AF_UNIX socket path to listen on", true, "");
  cli.add_option("index",
                 "spectrum index to serve, as PATH or K=PATH (repeatable; "
                 "one file per k)",
                 true, "");
  cli.add_option("reads",
                 "FASTQ whose reads are the phase-1 substrate for methods "
                 "without a spectrum index, i.e. reptile (optional)",
                 true, "");
  cli.add_option("threads", "correction worker threads", true, "2");
  cli.add_option("queue-capacity",
                 "global admission bound in batches (full queue sheds "
                 "requests with BUSY)",
                 true, "32");
  cli.add_option("max-inflight",
                 "unanswered batches one client may have in flight", true,
                 "4");
  cli.add_option("max-batch-reads", "largest read count per request batch",
                 true, "65536");
  cli.add_option("tile-cache-mb",
                 "per-method cap in MiB on the tile-decision memo's memory "
                 "(the memo never changes output)",
                 true, "32");
  cli.add_option("fault-spec",
                 "fault-injection spec (also read from NGS_FAULT_SPEC; "
                 "testing only)",
                 true, "");
  return fault::run_tool(cli, argc, argv, [&] {
    service::ServiceOptions options;
    options.socket_path = cli.required("socket");
    service::IndexRegistryConfig registry;
    registry.reads_path = cli.get("reads");
    const auto index_args = cli.get_all("index");
    if (index_args.empty() && registry.reads_path.empty()) {
      throw Error(ErrorKind::kConfig, "cli",
                  "nothing to serve — pass at least one --index and/or "
                  "--reads");
    }
    options.workers = cli.get_size("threads", 2);
    options.queue_capacity = cli.get_size("queue-capacity", 32);
    options.max_inflight_per_client = cli.get_size("max-inflight", 4);
    options.max_batch_reads = cli.get_size("max-batch-reads", 65536);
    registry.tile_cache_mb = cli.get_size("tile-cache-mb", 32);
    for (const auto& arg : index_args) {
      int declared_k = 0;
      const std::string path = split_index_arg(arg, declared_k);
      if (declared_k > 0) {
        // The header is authoritative; a stale K= prefix is a config
        // error worth failing on before we start serving.
        const auto info = index::SpectrumIndex::read_info(path);
        if (info.build.k != declared_k) {
          throw Error(ErrorKind::kConfig, "cli",
                      "--index " + arg + ": file has k=" +
                          std::to_string(info.build.k) + ", not k=" +
                          std::to_string(declared_k));
        }
      }
      registry.index_paths.push_back(path);
    }

    // Block the control signals in every thread the server will spawn;
    // the main thread handles them synchronously below.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGHUP);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    service::CorrectionServer server(options, registry);
    server.start();
    {
      const auto stats = server.stats();
      std::cout << "ngs-correctd: listening on " << options.socket_path
                << " (epoch " << stats.epoch_id << ", " << stats.indexes
                << " indexes, " << options.workers << " workers)"
                << std::endl;
    }

    for (;;) {
      int sig = 0;
      if (sigwait(&sigs, &sig) != 0) continue;
      if (sig == SIGHUP) {
        try {
          const std::uint64_t epoch = server.reload();
          std::cerr << "ngs-correctd: reloaded indexes (epoch " << epoch
                    << ")\n";
        } catch (const Error& e) {
          // Reload failure is survivable by design: the old epoch keeps
          // serving, the operator gets the typed reason.
          std::cerr << "ngs-correctd: reload failed, keeping current epoch: "
                    << e.what() << "\n";
        }
        continue;
      }
      std::cerr << "ngs-correctd: shutting down (signal " << sig << ")\n";
      break;
    }
    server.stop();
    const auto stats = server.stats();
    std::cerr << "ngs-correctd: served " << stats.batches_corrected
              << " batches / " << stats.reads_corrected << " reads over "
              << stats.connections_accepted << " connections ("
              << stats.busy_rejections << " shed, " << stats.batches_failed
              << " failed, " << stats.reloads << " reloads)\n";
    if (fault::Registry::instance().enabled()) {
      std::cerr << "fault injection: "
                << fault::Registry::instance().summary() << "\n";
    }
  });
}
