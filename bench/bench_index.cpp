// Persistent spectrum index bench: the build-once / load-many tradeoff
// the ngs::index subsystem exists for. On the Table 2.1 D3-scale
// dataset it times the chunked spectrum build on 1, 2, 4 and 8 workers'
// lanes, writes the index once, then times cold-ish mmap loads (best
// of n) and full checksum-verified loads, asserting the loaded spectrum
// is byte-identical to the built one. Emits BENCH_index.json (path
// overridable via NGS_BENCH_JSON); the headline number is
// load_vs_8thread_speedup — how much pass 1 shrinks when a correction
// run starts from a persisted index instead of rebuilding.

#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "index/spectrum_index.hpp"
#include "kspec/chunked_builder.hpp"
#include "kspec/kspectrum.hpp"
#include "util/thread_pool.hpp"

using namespace ngs;

namespace {

bool identical(const kspec::KSpectrum& a, const kspec::KSpectrum& b) {
  return a.k() == b.k() && a.size() == b.size() &&
         a.total_instances() == b.total_instances() &&
         std::equal(a.codes().begin(), a.codes().end(), b.codes().begin(),
                    b.codes().end()) &&
         std::equal(a.counts().begin(), a.counts().end(), b.counts().begin(),
                    b.counts().end());
}

template <typename F>
double best_seconds(int n, F&& fn) {
  double best = 1e30;
  for (int i = 0; i < n; ++i) {
    util::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main() {
  const double scale = bench::scale_or(1.0);
  const int k = 13;
  constexpr int kRepeats = 5;
  bench::print_header(
      "Persistent spectrum index bench (Table 2.1 D3-scale)",
      "Build-once/load-many: mmap index load vs chunked spectrum builds "
      "on 1-8 threads.");

  const auto specs = sim::chapter2_specs(scale);
  const auto& d3_spec = specs.at(2);  // D3
  const auto d3 = sim::make_dataset(d3_spec, 42);
  const auto& reads = d3.sim.reads;
  std::cout << "dataset=" << d3_spec.name << " (" << d3_spec.genome_label
            << "), reads=" << reads.size() << ", bases=" << reads.total_bases()
            << ", k=" << k << ", hardware_threads="
            << std::thread::hardware_concurrency() << "\n\n";

  // --- Builds to beat: the chunked builder on 1, 2, 4 and 8 workers. ---
  std::vector<std::pair<std::size_t, double>> builds;
  kspec::KSpectrum reference;
  for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    util::ThreadPool pool(threads);
    builds.emplace_back(threads, best_seconds(3, [&] {
      const auto spec = bench::count_on_workers(reads, k, pool);
      if (reference.k() == 0) reference = spec;
      if (!identical(spec, reference)) std::abort();
    }));
  }
  const double par8_s = builds.back().second;

  // --- Write once. ---
  const std::string path = "bench_index_d3.ngsx";
  index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = true;
  build.input_reads = reads.size();
  build.input_bases = reads.total_bases();
  for (const auto& r : reads.reads) {
    build.max_read_length = std::max(
        build.max_read_length, static_cast<std::uint32_t>(r.bases.size()));
  }
  util::Timer write_timer;
  const std::uint64_t checksum =
      index::write_spectrum_index(path, reference, build);
  const double write_s = write_timer.seconds();
  const auto file_bytes = index::SpectrumIndex::read_info(path).file_bytes;

  // --- Load many. ---
  bool load_identical = true;
  const double load_s = best_seconds(kRepeats, [&] {
    const auto loaded = index::SpectrumIndex::load(path);
    load_identical = load_identical && identical(loaded.spectrum(), reference);
  });
  index::LoadOptions verify_opts;
  verify_opts.verify_checksums = true;
  verify_opts.validate_payload = true;
  const double verified_load_s = best_seconds(
      kRepeats, [&] { (void)index::SpectrumIndex::load(path, verify_opts); });
  index::LoadOptions owned_opts;
  owned_opts.use_mmap = false;
  const double owned_load_s = best_seconds(
      kRepeats, [&] { (void)index::SpectrumIndex::load(path, owned_opts); });
  if (!load_identical) {
    std::cerr << "FATAL: loaded spectrum differs from built spectrum\n";
    return 1;
  }

  util::Table table({"Path", "Seconds", "vs 8-thread build"});
  for (const auto& [threads, seconds] : builds) {
    table.add_row({std::to_string(threads) + "-thread build",
                   util::Table::fixed(seconds, 4),
                   util::Table::fixed(par8_s / seconds, 2) + "x"});
  }
  table.add_row({"index write", util::Table::fixed(write_s, 4), "-"});
  table.add_row({"mmap load", util::Table::fixed(load_s, 4),
                 util::Table::fixed(par8_s / load_s, 2) + "x"});
  table.add_row({"verified load", util::Table::fixed(verified_load_s, 4),
                 util::Table::fixed(par8_s / verified_load_s, 2) + "x"});
  table.add_row({"owned-buffer load", util::Table::fixed(owned_load_s, 4),
                 util::Table::fixed(par8_s / owned_load_s, 2) + "x"});
  table.print(std::cout);
  std::cout << "\nindex: " << file_bytes << " bytes, " << reference.size()
            << " distinct kmers, checksum 0x" << std::hex << checksum
            << std::dec << ", loaded spectrum byte-identical, peak rss "
            << bench::mem_gb() << " GiB\n";

  const char* json_path = std::getenv("NGS_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path : "BENCH_index.json");
  json << "{\n"
       << "  \"bench\": \"index\",\n"
       << "  \"dataset\": \"" << d3_spec.name << "\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"k\": " << k << ",\n"
       << "  \"reads\": " << reads.size() << ",\n"
       << "  \"bases\": " << reads.total_bases() << ",\n"
       << "  \"distinct_kmers\": " << reference.size() << ",\n"
       << "  \"index_bytes\": " << file_bytes << ",\n"
       << "  \"build_1thread_s\": " << builds[0].second << ",\n"
       << "  \"build_2thread_s\": " << builds[1].second << ",\n"
       << "  \"build_4thread_s\": " << builds[2].second << ",\n"
       << "  \"build_8thread_s\": " << par8_s << ",\n"
       << "  \"index_write_s\": " << write_s << ",\n"
       << "  \"mmap_load_s\": " << load_s << ",\n"
       << "  \"verified_load_s\": " << verified_load_s << ",\n"
       << "  \"owned_load_s\": " << owned_load_s << ",\n"
       << "  \"load_vs_8thread_speedup\": " << par8_s / load_s << ",\n"
       << "  \"load_vs_1thread_speedup\": " << builds[0].second / load_s
       << ",\n"
       << "  \"byte_identical\": " << (load_identical ? "true" : "false")
       << "\n}\n";
  std::cout << "wrote "
            << (json_path != nullptr ? json_path : "BENCH_index.json") << "\n";
  std::remove(path.c_str());
  return 0;
}
