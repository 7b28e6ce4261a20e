#include "sim/datasets.hpp"

namespace ngs::sim {
namespace {

constexpr std::size_t kEcoliLen = 100000;   // E. coli-like, scaled
constexpr std::size_t kAspLen = 75000;      // A. sp. ADP1-like, scaled
constexpr std::size_t kCh3Len = 100000;     // Chapter 3 synthetic genomes

std::size_t scaled(std::size_t base, double scale) {
  return static_cast<std::size_t>(static_cast<double>(base) * scale);
}

DatasetSpec ch2_spec(std::string name, std::string label, std::size_t glen,
                     std::size_t read_len, double coverage, double err,
                     double scale) {
  DatasetSpec s;
  s.name = std::move(name);
  s.genome_label = std::move(label);
  s.genome.length = scaled(glen, scale);
  // Low but nonzero repeat content, as in real microbial genomes.
  s.genome.repeats = {{600, std::max<std::size_t>(2, scaled(4, scale)), 0.01}};
  s.read_config.read_length = read_len;
  s.read_config.coverage = coverage;
  s.error_rate = err;
  s.profile = ErrorProfile::kIllumina;
  return s;
}

}  // namespace

Dataset make_dataset(const DatasetSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d;
  d.spec = spec;
  d.genome = simulate_genome(spec.genome, rng);
  switch (spec.profile) {
    case ErrorProfile::kIllumina:
      d.model = ErrorModel::illumina(spec.read_config.read_length,
                                     spec.error_rate);
      break;
    case ErrorProfile::kIlluminaAlternate:
      d.model = ErrorModel::illumina_alternate(spec.read_config.read_length,
                                               spec.error_rate);
      break;
    case ErrorProfile::kUniform:
      d.model =
          ErrorModel::uniform(spec.read_config.read_length, spec.error_rate);
      break;
  }
  d.sim = simulate_reads(d.genome.sequence, d.model, spec.read_config, rng);
  return d;
}

std::vector<DatasetSpec> chapter2_specs(double scale) {
  std::vector<DatasetSpec> specs;
  // Table 2.1: name, genome, read length, coverage, error rate.
  specs.push_back(
      ch2_spec("D1", "E. coli-like", kEcoliLen, 36, 160.0, 0.006, scale));
  specs.push_back(
      ch2_spec("D2", "E. coli-like", kEcoliLen, 36, 80.0, 0.006, scale));
  specs.push_back(
      ch2_spec("D3", "A. sp-like", kAspLen, 36, 173.0, 0.015, scale));
  specs.push_back(
      ch2_spec("D4", "A. sp-like", kAspLen, 36, 40.0, 0.015, scale));
  specs.push_back(
      ch2_spec("D5", "E. coli-like", kEcoliLen, 47, 71.0, 0.033, scale));
  auto d6 = ch2_spec("D6", "E. coli-like", kEcoliLen, 101, 193.0, 0.022,
                     scale);
  // Table 2.1 reports 13.9% of D6 reads containing N; per-base rate p with
  // 1-(1-p)^101 = 0.139 gives p ~ 0.0015.
  d6.read_config.ambiguous_rate = 0.0015;
  specs.push_back(std::move(d6));
  return specs;
}

std::vector<DatasetSpec> chapter3_specs(double scale) {
  std::vector<DatasetSpec> specs;
  const std::size_t len = scaled(kCh3Len, scale);
  auto base = [&](std::string name, std::string label) {
    DatasetSpec s;
    s.name = std::move(name);
    s.genome_label = std::move(label);
    s.genome.length = len;
    s.read_config.read_length = 36;
    s.read_config.coverage = 80.0;
    // Published GA-era Illumina rates run 1-1.5%; the higher end keeps
    // the repeat-shadow error phenomenon (repeatedly generated misreads)
    // alive at our scaled-down sizes.
    s.error_rate = 0.012;
    s.profile = ErrorProfile::kIllumina;
    return s;
  };
  // Scaling note: REDEEM's behavior is governed by repeat *multiplicity*
  // (the paper's families carry 100-400 copies), so scaling shrinks the
  // repeat unit length while the copy count stays proportional to the
  // paper's — preserving the span fractions AND the multiplicity regime.
  auto unit = [&](std::size_t paper_len) {
    return std::max<std::size_t>(100, scaled(paper_len / 2, scale));
  };

  // D1: 20% repeats (paper: one family of 200 copies).
  auto d1 = base("D1", "synthetic 20% repeats");
  d1.genome.repeats = {{unit(1000), len / 5 / unit(1000), 0.0}};
  specs.push_back(std::move(d1));

  // D2: 50% repeats (paper: (500, 400) + (1500, 200)).
  auto d2 = base("D2", "synthetic 50% repeats");
  d2.genome.repeats = {{unit(500), len / 5 / unit(500), 0.0},
                       {unit(1500), len * 3 / 10 / unit(1500), 0.0}};
  specs.push_back(std::move(d2));

  // D3: 80% repeats (paper adds (3000, 100)).
  auto d3 = base("D3", "synthetic 80% repeats");
  d3.genome.repeats = {{unit(500), len / 5 / unit(500), 0.0},
                       {unit(1500), len * 3 / 10 / unit(1500), 0.0},
                       {unit(3000), len * 3 / 10 / unit(3000), 0.0}};
  specs.push_back(std::move(d3));

  // D4: N. meningitidis-like — moderately repetitive with near-identical
  // repeat copies.
  auto d4 = base("D4", "N. meningitidis-like");
  d4.genome.repeats = {{unit(800), len / 4 / unit(800), 0.005}};
  specs.push_back(std::move(d4));

  // D5: maize-like — high repeat content with diverged copies.
  auto d5 = base("D5", "maize-like");
  d5.genome.length = scaled(80000, scale);
  d5.genome.repeats = {
      {unit(1200), d5.genome.length * 3 / 5 / unit(1200), 0.02}};
  specs.push_back(std::move(d5));

  // D6: E. coli-like, low repeats, 160x (the one real dataset of Ch.3).
  auto d6 = base("D6", "E. coli-like");
  d6.read_config.coverage = 160.0;
  d6.genome.repeats = {{600, 4, 0.01}};
  specs.push_back(std::move(d6));
  return specs;
}

}  // namespace ngs::sim
