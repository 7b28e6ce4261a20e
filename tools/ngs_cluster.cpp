// ngs-cluster — CLOSET metagenomic read clustering from the command
// line: reads in (FASTA or FASTQ), cluster assignments out (TSV with one
// column per similarity threshold).
//
//   ngs-cluster --in 16s.fasta --thresholds 0.95,0.90,0.85
//               --out clusters.tsv

#include <iostream>
#include <sstream>

#include "closet/closet.hpp"
#include "io/fastx.hpp"
#include "seq/kmer.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  util::CliParser cli("ngs-cluster",
                      "sketch + quasi-clique metagenomic read clustering");
  cli.add_option("in", "input FASTA or FASTQ (by extension)", true, "");
  cli.add_option("out", "output TSV path", true, "clusters.tsv");
  cli.add_option("thresholds", "comma-separated similarity levels", true,
                 "0.95,0.92,0.90");
  cli.add_option("k", "sketch kmer length", true, "15");
  cli.add_option("gamma", "quasi-clique density", true, "0.6667");
  cli.add_option("cmin", "candidate screening similarity", true, "0.6");
  cli.add_option("alignment", "validate edges with banded alignment",
                 false);
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested() || cli.get("in").empty()) {
    std::cout << cli.usage();
    return cli.help_requested() ? 0 : 2;
  }

  closet::ClosetParams params;
  try {
    params.k = static_cast<int>(cli.get_size("k", 15, 1, seq::kMaxK));
    params.gamma = cli.get_double("gamma", 2.0 / 3.0, 0.0, 1.0);
    params.cmin = cli.get_double("cmin", 0.6, 0.0, 1.0);
    params.thresholds.clear();
    std::stringstream ss(cli.get("thresholds"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      params.thresholds.push_back(
          util::parse_double("thresholds", item, 0.0, 1.0));
    }
  } catch (const Error& e) {
    std::cerr << "ngs-cluster: " << e.what() << "\n";
    return tool_exit_code(e.kind());
  }

  // A missing input or an unwritable output is an I/O error (exit 3).
  // The TSV goes through util::AtomicFile, so a failed run leaves no
  // partial file and prints no "wrote" line.
  try {
    const std::string path = cli.get("in");
    const bool fastq = path.size() > 6 &&
                       (path.rfind(".fastq") == path.size() - 6 ||
                        path.rfind(".fq") == path.size() - 3);
    const auto reads =
        fastq ? io::read_fastq_file(path) : io::read_fasta_file(path);
    std::cerr << "read " << reads.size() << " sequences\n";

    params.validate_with_alignment = cli.has("alignment");

    util::Timer timer;
    closet::Closet engine(params);
    const auto result = engine.run(reads);
    std::cerr << "validated " << result.confirmed_edges << " edges in "
              << timer.seconds() << "s\n";

    std::ostringstream out;
    out << "read";
    for (const auto& level : result.levels) {
      out << "\tcluster@" << level.threshold;
    }
    out << "\n";
    std::vector<std::vector<std::uint32_t>> labels;
    labels.reserve(result.levels.size());
    for (const auto& level : result.levels) {
      labels.push_back(
          closet::Closet::to_partition(level.clusters, reads.size()));
    }
    for (std::size_t i = 0; i < reads.size(); ++i) {
      out << reads.reads[i].id;
      for (const auto& l : labels) out << '\t' << l[i];
      out << '\n';
    }
    util::AtomicFile file(cli.get("out"));
    const std::string text = out.str();
    file.write(text.data(), text.size());
    file.commit();
    for (const auto& level : result.levels) {
      std::cerr << "threshold " << level.threshold << ": "
                << level.resulting_clusters << " clusters\n";
    }
  } catch (const Error& e) {
    std::cerr << "ngs-cluster: " << e.what() << "\n";
    return tool_exit_code(e.kind());
  }
  std::cerr << "wrote " << cli.get("out") << "\n";
  return 0;
}
