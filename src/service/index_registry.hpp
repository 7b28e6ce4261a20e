#pragma once
// The daemon's shared correction state, with hot reload.
//
// An *epoch* is one immutable, fully verified generation of serving
// state: every spectrum index mmap-loaded read-only (checksums
// verified up front — a serving process must not discover bit rot at
// request time), the optional buffered-method read set, and a lazy
// cache of built correctors keyed by the HELLO configuration. Requests
// pin the current epoch with a shared_ptr for the duration of one
// batch, so a reload can atomically publish a new epoch while every
// in-flight batch finishes on the mapping it started with — the
// refcount retires the old epoch when the last batch drains. A
// replacement index that fails verification rejects the whole reload
// and leaves the old epoch serving (typed error, no partial swap).
//
// Corrector construction mirrors core::CorrectionPipeline exactly:
// streaming methods get build_from_spectrum with the InputSummary from
// the index header (the --load-index path), buffered methods get
// build() over the read set parsed from --reads (the buffered path) —
// which is what makes served output byte-identical to offline
// ngs-correct.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/corrector.hpp"
#include "core/registry.hpp"
#include "seq/read.hpp"

namespace ngs::service {

/// One mmap-loaded spectrum index of an epoch.
struct LoadedIndex {
  std::string path;
  int k = 0;
  bool both_strands = true;
  std::uint64_t checksum = 0;
  std::uint64_t distinct = 0;
  core::InputSummary input;      // from the index header
  kspec::KSpectrum spectrum;     // zero-copy view, keepalive-backed
};

/// Corrector cache key: every HELLO field that can change the built
/// corrector (and therefore the output bytes).
struct CorrectorKey {
  std::string method;
  int k = 0;
  std::uint64_t genome_length = 0;
  std::uint64_t error_rate_bits = 0;

  bool operator<(const CorrectorKey& other) const {
    if (method != other.method) return method < other.method;
    if (k != other.k) return k < other.k;
    if (genome_length != other.genome_length) {
      return genome_length < other.genome_length;
    }
    return error_rate_bits < other.error_rate_bits;
  }
};

class Epoch {
 public:
  Epoch(std::uint64_t id, std::map<int, LoadedIndex> indexes,
        std::optional<seq::ReadSet> reads)
      : id_(id), indexes_(std::move(indexes)), reads_(std::move(reads)) {}

  std::uint64_t id() const noexcept { return id_; }
  const std::map<int, LoadedIndex>& indexes() const noexcept {
    return indexes_;
  }
  bool has_reads() const noexcept { return reads_.has_value(); }
  std::size_t read_count() const noexcept {
    return reads_ ? reads_->size() : 0;
  }

  /// The built, ready corrector for one HELLO configuration (cached;
  /// built on first use under a per-epoch mutex). The returned
  /// corrector is immutable serving state: correct_batch is
  /// thread-safe, and the shared_ptr keeps it (and the underlying
  /// mapping) alive across a reload. Throws ngs::Error(kConfig) when
  /// the method is unknown, needs an index k this epoch does not hold,
  /// or needs the read substrate and the daemon was started without
  /// --reads.
  std::shared_ptr<const core::Corrector> corrector_for(
      const std::string& method, const core::CorrectorConfig& config) const;

 private:
  std::unique_ptr<core::Corrector> make_built(
      const std::string& method, const core::CorrectorConfig& config) const;

  std::uint64_t id_;
  std::map<int, LoadedIndex> indexes_;
  std::optional<seq::ReadSet> reads_;
  mutable std::mutex cache_mutex_;
  mutable std::map<CorrectorKey, std::shared_ptr<const core::Corrector>>
      cache_;
};

/// What an epoch is (re)built from: the daemon's --index/--reads flags.
struct IndexRegistryConfig {
  /// Spectrum index files to serve (any mix of v1 monolithic and v2
  /// sharded). Each file's k must be unique within one epoch.
  std::vector<std::string> index_paths;
  /// Optional FASTQ whose reads are the phase-1 substrate for buffered
  /// methods (reptile, shrec, ...). Empty = streaming methods only.
  std::string reads_path;
  /// Per-method tile-decision cache budget, mirroring ngs-correct's
  /// --tile-cache-mb default so served output matches offline runs.
  std::size_t tile_cache_mb = 32;
};

class IndexRegistry {
 public:
  explicit IndexRegistry(IndexRegistryConfig config)
      : config_(std::move(config)) {}

  /// Builds and publishes the first epoch. Throws on any load/verify
  /// failure (the daemon refuses to start with bad indexes).
  void load_initial();

  /// Re-verifies every configured file and atomically publishes a new
  /// epoch (SIGHUP / RELOAD). On failure the old epoch keeps serving
  /// and the error propagates to the caller. Serialized internally;
  /// returns the new epoch id. Injection site service.reload covers
  /// the verification step.
  std::uint64_t reload();

  /// The current epoch (never null after load_initial). Pin one per
  /// request batch.
  std::shared_ptr<const Epoch> snapshot() const;

  std::uint64_t reloads() const noexcept;

  const IndexRegistryConfig& config() const noexcept { return config_; }

 private:
  std::shared_ptr<const Epoch> build_epoch(std::uint64_t id) const;

  IndexRegistryConfig config_;
  /// Serializes epoch construction (reload against reload): held for the
  /// whole verify+build, which may take a while — so it must never be
  /// the lock snapshot() takes.
  std::mutex reload_mutex_;
  /// Guards only the epoch_ pointer swap and counters; snapshot() holds
  /// it for a shared_ptr copy, nothing more.
  mutable std::mutex mutex_;
  std::shared_ptr<const Epoch> epoch_;
  std::uint64_t next_epoch_id_ = 1;
  std::uint64_t reloads_ = 0;
};

}  // namespace ngs::service
