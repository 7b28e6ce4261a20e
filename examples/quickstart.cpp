// Quickstart: simulate a small Illumina-like run, correct it through
// the unified corrector registry and the streaming correction pipeline,
// and measure the result against exact ground truth.
//
//   $ ./examples/quickstart [genome_length] [coverage]
//
// This walks the same path a user with a real FASTQ would take —
// core::make_corrector("reptile", ...) + core::CorrectionPipeline over
// FASTQ files — with the simulator standing in for the sequencer.

#include <cstdlib>
#include <iostream>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "eval/correction_metrics.hpp"
#include "io/fastx.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace ngs;

int main(int argc, char** argv) {
  const std::size_t genome_len =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 50000;
  const double coverage = argc > 2 ? std::atof(argv[2]) : 60.0;

  // 1. A target genome and a sequencing run with 1% substitution errors.
  util::Rng rng(2024);
  sim::GenomeSpec gspec;
  gspec.length = genome_len;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto error_model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig read_cfg;
  read_cfg.read_length = 36;
  read_cfg.coverage = coverage;
  const auto run = sim::simulate_reads(genome.sequence, error_model,
                                       read_cfg, rng);
  std::cout << "simulated " << run.reads.size() << " reads ("
            << run.substitution_errors << " erroneous bases, "
            << util::Table::percent(run.realized_error_rate()) << ")\n";

  // 2. Write the run to FASTQ, as real data would arrive.
  const std::string path = "/tmp/ngs_quickstart.fastq";
  const std::string corrected_path = "/tmp/ngs_quickstart.corrected.fastq";
  io::write_fastq_file(path, run.reads);
  std::cout << "wrote " << path << "\n";

  // 3. Pick a method from the registry and stream-correct the file.
  //    (Every surveyed corrector is one name away — see
  //    `ngs-correct --method list`.)
  core::CorrectorConfig config;
  config.genome_length = genome_len;
  util::Timer timer;
  core::CorrectionPipeline pipeline(core::make_corrector("reptile", config));
  const auto result = pipeline.run_file(path, corrected_path);
  std::cout << "corrected: " << result.report.summary() << "\n";
  std::cout << "pipeline: " << result.batches << " batches of "
            << pipeline.options().batch_size << ", "
            << (result.pass1_overlap.workers > 0 ? "streamed" : "buffered")
            << " phase 1, "
            << util::Table::fixed(timer.seconds(), 1) << "s\n";

  // 4. Score against the simulator's exact truth.
  const auto corrected = io::read_fastq_file(corrected_path);
  const auto metrics = eval::evaluate_correction(run.reads, corrected.reads);
  std::cout << "sensitivity " << util::Table::percent(metrics.sensitivity())
            << ", specificity " << util::Table::percent(metrics.specificity())
            << ", gain " << util::Table::percent(metrics.gain())
            << ", EBA " << util::Table::fixed(metrics.eba() * 100, 3)
            << "%\n";
  std::cout << "corrected reads written to " << corrected_path << "\n";
  return 0;
}
