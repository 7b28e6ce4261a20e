// ngs-simulate — generate a synthetic genome and an Illumina-like run,
// writing genome FASTA, reads FASTQ, and a truth TSV (read id, position,
// strand, error-free bases) for downstream evaluation.
//
//   ngs-simulate --genome-length 100000 --coverage 60 --error-rate 0.01
//                --reads out.fastq --genome genome.fasta --truth truth.tsv

#include <iostream>
#include <optional>

#include "fault/tool.hpp"
#include "io/fastx.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  util::CliParser cli("ngs-simulate",
                      "simulate a genome and an Illumina-like read set");
  cli.add_option("genome-length", "genome length in bp", true, "100000");
  cli.add_option("repeat-length", "repeat unit length (0 = no repeats)",
                 true, "0");
  cli.add_option("repeat-copies", "repeat copy count", true, "0");
  cli.add_option("read-length", "read length in bp", true, "36");
  cli.add_option("coverage", "genome coverage", true, "60");
  cli.add_option("error-rate", "average substitution error rate", true,
                 "0.01");
  cli.add_option("ambiguous-rate", "per-base N injection rate", true, "0");
  cli.add_option("seed", "RNG seed", true, "42");
  cli.add_option("reads", "output FASTQ path", true, "reads.fastq");
  cli.add_option("genome", "output genome FASTA path", true, "genome.fasta");
  cli.add_option("truth", "output truth TSV path (empty = skip)", true, "");
  return fault::run_tool(cli, argc, argv, [&] {
    sim::GenomeSpec gspec;
    sim::ReadSimConfig cfg;
    const std::size_t seed = cli.get_size("seed", 42);
    gspec.length = cli.get_size("genome-length", 100000, 1);
    const std::size_t rep_len = cli.get_size("repeat-length", 0);
    const std::size_t rep_n = cli.get_size("repeat-copies", 0);
    const std::size_t read_length = cli.get_size("read-length", 36, 1);
    const double error_rate = cli.get_double("error-rate", 0.01, 0.0, 1.0);
    cfg.coverage = cli.get_double("coverage", 60.0, 0.0);
    cfg.ambiguous_rate = cli.get_double("ambiguous-rate", 0.0, 0.0, 1.0);
    // Shapes no genome can hold are config errors, raised before any
    // simulation or output.
    const std::string genome_length = std::to_string(gspec.length);
    if (read_length > gspec.length) {
      throw Error(ErrorKind::kConfig, "cli",
                  "--read-length " + std::to_string(read_length) +
                      " exceeds --genome-length " + genome_length);
    }
    if (rep_len > 0 && rep_n > 0 && rep_len > gspec.length / rep_n) {
      throw Error(ErrorKind::kConfig, "cli",
                  "--repeat-length " + std::to_string(rep_len) +
                      " x --repeat-copies " + std::to_string(rep_n) +
                      " exceeds --genome-length " + genome_length);
    }
    if (rep_len > 0 && rep_n > 0) {
      gspec.repeats = {{rep_len, rep_n, 0.0}};
    }
    util::Rng rng(seed);
    const auto genome = sim::simulate_genome(gspec, rng);

    const auto model = sim::ErrorModel::illumina(read_length, error_rate);
    cfg.read_length = read_length;
    const auto run = sim::simulate_reads(genome.sequence, model, cfg, rng);

    // Every output is written to its temp file before any is committed,
    // so an unwritable path (exit 3) leaves none of them behind.
    seq::ReadSet genome_set;
    genome_set.reads.push_back({"genome", genome.sequence, {}});
    util::AtomicFile genome_file(cli.get("genome"));
    util::AtomicFile reads_file(cli.get("reads"));
    genome_file.write_through(
        [&](std::ostream& os) { io::write_fasta(os, genome_set); });
    reads_file.write_through(
        [&](std::ostream& os) { io::write_fastq(os, run.reads); });
    std::optional<util::AtomicFile> truth_file;
    if (!cli.get("truth").empty()) {
      truth_file.emplace(cli.get("truth"));
      truth_file->write_through([&](std::ostream& os) {
        os << "read\tposition\tstrand\ttrue_bases\n";
        for (std::size_t i = 0; i < run.reads.size(); ++i) {
          const auto& t = run.reads.truth[i];
          os << run.reads.reads[i].id << '\t' << t.genome_pos << '\t'
             << (t.reverse_strand ? '-' : '+') << '\t' << t.true_bases
             << '\n';
        }
      });
    }
    genome_file.commit();
    reads_file.commit();
    if (truth_file) truth_file->commit();

    std::cerr << "wrote " << run.reads.size() << " reads ("
              << run.substitution_errors << " erroneous bases, "
              << (genome.repeat_fraction * 100) << "% repeat span)\n";
  });
}
