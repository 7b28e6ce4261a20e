// google-benchmark microbenchmarks for the hot substrate primitives:
// kmer codec, reverse complement, Hamming, spectrum construction, flat
// counter, packed-window mismatch counting, the MapReduce engine, and
// the disarmed fault-injection site check (must stay ~1 atomic load).

#include <benchmark/benchmark.h>

#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "kspec/kspectrum.hpp"
#include "mapper/mismatch_mapper.hpp"
#include "mapreduce/job.hpp"
#include "seq/kmer.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/flat_counter.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

std::string random_dna(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return sim::random_sequence(n, {0.25, 0.25, 0.25, 0.25}, rng);
}

void BM_EncodeKmer(benchmark::State& state) {
  const std::string s = random_dna(32, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::encode_kmer(s));
  }
}
BENCHMARK(BM_EncodeKmer);

void BM_ReverseComplementPacked(benchmark::State& state) {
  const auto code = seq::encode_kmer(random_dna(21, 2)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::reverse_complement(code, 21));
  }
}
BENCHMARK(BM_ReverseComplementPacked);

void BM_KmerHamming(benchmark::State& state) {
  const auto a = seq::encode_kmer(random_dna(32, 3)).value();
  const auto b = seq::encode_kmer(random_dna(32, 4)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::kmer_hamming(a, b));
  }
}
BENCHMARK(BM_KmerHamming);

void BM_ExtractKmers(benchmark::State& state) {
  const std::string s = random_dna(static_cast<std::size_t>(state.range(0)), 5);
  std::vector<seq::KmerCode> out;
  for (auto _ : state) {
    out.clear();
    seq::extract_kmer_codes(s, 15, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractKmers)->Arg(1000)->Arg(100000);

void BM_SpectrumBuild(benchmark::State& state) {
  util::Rng rng(6);
  const auto genome = random_dna(20000, 6);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = static_cast<double>(state.range(0));
  const auto simulated = sim::simulate_reads(genome, model, cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kspec::KSpectrum::build(simulated.reads, 13, true));
  }
}
BENCHMARK(BM_SpectrumBuild)->Arg(10)->Arg(40);

void BM_FlatCounter(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<std::uint64_t> keys(100000);
  for (auto& k : keys) k = rng.below(20000);
  for (auto _ : state) {
    util::FlatCounter counter(20000);
    for (const auto k : keys) counter.add(k);
    benchmark::DoNotOptimize(counter.distinct());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_FlatCounter);

void BM_MapAllMismatches(benchmark::State& state) {
  const auto genome = random_dna(100000, 8);
  const mapper::MismatchMapper mapper(genome, 12);
  std::string read = genome.substr(500, 100);
  read[10] = read[10] == 'A' ? 'C' : 'A';
  read[60] = read[60] == 'A' ? 'C' : 'A';
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map_all(read, 4));
  }
}
BENCHMARK(BM_MapAllMismatches);

void BM_MapReduceWordCount(benchmark::State& state) {
  std::vector<std::pair<int, int>> input;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    input.emplace_back(i, i % 100);
  }
  using CountJob = mapreduce::Job<int, int, int, int, int, int>;
  for (auto _ : state) {
    auto out = CountJob::run(
        input,
        [](const int&, const int& v, mapreduce::Emitter<int, int>& e) {
          e.emit(v, 1);
        },
        [](const int& k, std::span<const int> vs,
           mapreduce::Emitter<int, int>& e) {
          e.emit(k, static_cast<int>(vs.size()));
        });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapReduceWordCount)->Arg(10000)->Arg(100000);

void BM_FaultSiteCheckDisarmed(benchmark::State& state) {
  // The cost every hardened hot path pays when no fault is armed: one
  // relaxed atomic load (or nothing under NGS_FAULT_INJECTION=OFF).
  fault::Registry::instance().reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::should_fire(fault::sites::kPass2Batch));
  }
}
BENCHMARK(BM_FaultSiteCheckDisarmed);

void BM_FaultSiteCheckArmedElsewhere(benchmark::State& state) {
  // Worst non-firing case: the registry is enabled (some other site is
  // armed), so every check takes the mutex and counts the hit.
  fault::Registry::instance().reset();
  fault::Registry::instance().configure("io.fastq.open=n1000000000");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::should_fire(fault::sites::kPass2Batch));
  }
  fault::Registry::instance().reset();
}
BENCHMARK(BM_FaultSiteCheckArmedElsewhere);

}  // namespace

BENCHMARK_MAIN();
