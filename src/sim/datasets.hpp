#pragma once
// Canned dataset specifications mirroring the paper's experimental
// datasets (Table 2.1 for Chapter 2, Table 3.1 for Chapter 3), scaled to
// laptop size. Coverage, read length, error rate, and repeat content
// follow the paper; genome lengths are scaled down (the paper's own
// Chapter 3 argues results depend on repeat *fraction*, not absolute
// genome size). A scale factor multiplies genome lengths (and repeat
// multiplicities) for heavier runs.

#include <string>
#include <vector>

#include "sim/error_model.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace ngs::sim {

enum class ErrorProfile { kIllumina, kIlluminaAlternate, kUniform };

struct DatasetSpec {
  std::string name;          // e.g. "D1"
  std::string genome_label;  // e.g. "E. coli-like"
  GenomeSpec genome;
  ReadSimConfig read_config;
  double error_rate = 0.01;  // average substitution rate
  ErrorProfile profile = ErrorProfile::kIllumina;
};

struct Dataset {
  DatasetSpec spec;
  Genome genome;
  SimulatedReads sim;
  ErrorModel model;  // the model reads were generated with
};

/// Instantiates genome + reads + model for a spec, deterministically from
/// the seed.
Dataset make_dataset(const DatasetSpec& spec, std::uint64_t seed);

/// Chapter 2 datasets D1..D6 (Table 2.1 analogs). `scale` multiplies
/// genome length. Defaults: E. coli-like 100 kbp, A. sp-like 75 kbp.
std::vector<DatasetSpec> chapter2_specs(double scale = 1.0);

/// Chapter 3 datasets D1..D6 (Table 3.1 analogs): D1-D3 synthetic with
/// 20/50/80% repeat span, D4 N. meningitidis-like (near-identical
/// repeats), D5 maize-like (diverged repeats), D6 E. coli-like low-repeat.
std::vector<DatasetSpec> chapter3_specs(double scale = 1.0);

}  // namespace ngs::sim
