// ngs-cluster — CLOSET metagenomic read clustering from the command
// line: reads in (FASTA or FASTQ), cluster assignments out (TSV with one
// column per similarity threshold).
//
//   ngs-cluster --in 16s.fasta --thresholds 0.95,0.90,0.85
//               --out clusters.tsv

#include <iostream>
#include <sstream>

#include "closet/closet.hpp"
#include "fault/tool.hpp"
#include "io/fastx.hpp"
#include "seq/kmer.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
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
  return fault::run_tool(cli, argc, argv, [&] {
    const std::string path = cli.required("in");
    closet::ClosetParams params;
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
    params.validate_with_alignment = cli.has("alignment");

    const bool fastq = path.size() > 6 &&
                       (path.rfind(".fastq") == path.size() - 6 ||
                        path.rfind(".fq") == path.size() - 3);
    const auto reads =
        fastq ? io::read_fastq_file(path) : io::read_fasta_file(path);
    std::cerr << "read " << reads.size() << " sequences\n";

    util::Timer timer;
    closet::Closet engine(params);
    const auto result = engine.run(reads);
    std::cerr << "validated " << result.confirmed_edges << " edges in "
              << timer.seconds() << "s\n";

    // The TSV goes through util::AtomicFile, so a failed run leaves no
    // partial file and prints no "wrote" line.
    std::vector<std::vector<std::uint32_t>> labels;
    labels.reserve(result.levels.size());
    for (const auto& level : result.levels) {
      labels.push_back(
          closet::Closet::to_partition(level.clusters, reads.size()));
    }
    util::AtomicFile file(cli.get("out"));
    file.write_through([&](std::ostream& out) {
      out << "read";
      for (const auto& level : result.levels) {
        out << "\tcluster@" << level.threshold;
      }
      out << "\n";
      for (std::size_t i = 0; i < reads.size(); ++i) {
        out << reads.reads[i].id;
        for (const auto& l : labels) out << '\t' << l[i];
        out << '\n';
      }
    });
    file.commit();
    for (const auto& level : result.levels) {
      std::cerr << "threshold " << level.threshold << ": "
                << level.resulting_clusters << " clusters\n";
    }
    std::cerr << "wrote " << cli.get("out") << "\n";
  });
}
