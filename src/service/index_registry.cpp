#include "service/index_registry.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastq_stream.hpp"

namespace ngs::service {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::unique_ptr<core::Corrector> Epoch::make_built(
    const std::string& method, const core::CorrectorConfig& config) const {
  std::unique_ptr<core::Corrector> corrector;
  try {
    corrector = core::make_corrector(method, config);
  } catch (const std::invalid_argument& e) {
    throw ngs::Error(ngs::ErrorKind::kConfig, "", e.what());
  }
  const int k = corrector->spectrum_k();
  if (k > 0) {
    const auto it = indexes_.find(k);
    if (it == indexes_.end()) {
      std::string have;
      for (const auto& [loaded_k, idx] : indexes_) {
        if (!have.empty()) have += ", ";
        have += std::to_string(loaded_k);
      }
      throw ngs::Error(ngs::ErrorKind::kConfig, "",
                       "method '" + method + "' needs a k=" +
                           std::to_string(k) +
                           " spectrum index, but this server holds k in {" +
                           have + "}");
    }
    if (it->second.both_strands != corrector->spectrum_both_strands()) {
      throw ngs::Error(ngs::ErrorKind::kConfig, "",
                       it->second.path + ": index was built " +
                           (it->second.both_strands ? "with" : "without") +
                           " reverse-complement strands but method '" +
                           method + "' expects the opposite");
    }
    // Copying the KSpectrum view is cheap (spans + shared keepalive)
    // and pins the mapping to the corrector's lifetime.
    corrector->build_from_spectrum(it->second.spectrum, it->second.input);
  } else {
    if (!reads_) {
      throw ngs::Error(
          ngs::ErrorKind::kConfig, "",
          "method '" + method +
              "' needs the whole read set for phase 1, but this server was "
              "started without --reads");
    }
    corrector->build(*reads_);
  }
  return corrector;
}

std::shared_ptr<const core::Corrector> Epoch::corrector_for(
    const std::string& method, const core::CorrectorConfig& config) const {
  const CorrectorKey key{method, config.k, config.genome_length,
                         double_bits(config.error_rate)};
  // Build under the cache lock: two HELLOs racing on the same cold key
  // would otherwise both pay an expensive buffered-method build.
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  std::shared_ptr<const core::Corrector> built = make_built(method, config);
  cache_.emplace(key, built);
  return built;
}

std::shared_ptr<const Epoch> IndexRegistry::build_epoch(
    std::uint64_t id) const {
  fault::maybe_fail(fault::sites::kServiceReload, ngs::ErrorKind::kIndex,
                    "service: verifying replacement indexes");
  std::map<int, LoadedIndex> indexes;
  for (const auto& path : config_.index_paths) {
    // Verify checksums up front: the whole point of the epoch scheme is
    // that a corrupt replacement never reaches serving state. (The
    // payload pages are touched once here; they stay resident for the
    // epoch's life anyway.)
    index::LoadOptions options;
    options.verify_checksums = true;
    auto loaded = index::SpectrumIndex::load(path, options);
    const auto& info = loaded.info();
    LoadedIndex entry;
    entry.path = path;
    entry.k = info.build.k;
    entry.both_strands = info.build.both_strands;
    entry.checksum = info.checksum;
    entry.distinct = info.distinct;
    entry.input.reads = info.build.input_reads;
    entry.input.bases = info.build.input_bases;
    entry.input.max_read_length = info.build.max_read_length;
    entry.spectrum = loaded.share_spectrum();
    const auto [it, inserted] = indexes.emplace(entry.k, std::move(entry));
    if (!inserted) {
      throw ngs::Error(ngs::ErrorKind::kConfig, "",
                       path + ": duplicate index for k=" +
                           std::to_string(info.build.k) + " (already " +
                           it->second.path + ")");
    }
  }
  std::optional<seq::ReadSet> reads;
  if (!config_.reads_path.empty()) {
    // Mirror the pipeline's buffered pass exactly (same reader, same
    // policy) so buffered-method builds match offline runs.
    seq::ReadSet all;
    io::FastqStreamReader reader(config_.reads_path);
    while (reader.read_batch(all.reads, 4096) > 0) {
    }
    reads = std::move(all);
  }
  return std::make_shared<Epoch>(id, std::move(indexes), std::move(reads));
}

void IndexRegistry::load_initial() {
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  auto fresh = build_epoch(1);
  std::lock_guard<std::mutex> lock(mutex_);
  next_epoch_id_ = 2;
  epoch_ = std::move(fresh);
}

std::uint64_t IndexRegistry::reload() {
  // Build (and fully verify) the replacement outside the snapshot lock:
  // requests keep resolving against the old epoch for the whole load,
  // and any throw leaves it serving untouched.
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_epoch_id_;
  }
  auto fresh = build_epoch(id);
  std::lock_guard<std::mutex> lock(mutex_);
  ++next_epoch_id_;
  ++reloads_;
  epoch_ = std::move(fresh);
  return epoch_->id();
}

std::shared_ptr<const Epoch> IndexRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::uint64_t IndexRegistry::reloads() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return reloads_;
}

}  // namespace ngs::service
