// Adapters binding the seven concrete correction methods to the unified
// core::Corrector interface, and their registration with the factory.
// Spectrum-based methods (SAP, HiTEC, REDEEM) advertise spectrum_k() and
// build only from a spectrum: the CorrectionPipeline streams it through
// a ChunkedSpectrumBuilder in bounded memory, and Corrector::build
// counts a ReadSet with the same builder. Reptile counts its spectrum,
// qualities and tiles in passes over the streamed input (a ReadSet is
// streamed in blocks); SHREC, FreClu, and the hybrid are whole-set
// algorithms.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/freclu.hpp"
#include "baselines/hitec.hpp"
#include "baselines/sap.hpp"
#include "core/registry.hpp"
#include "redeem/corrector.hpp"
#include "redeem/em_model.hpp"
#include "redeem/error_dist.hpp"
#include "redeem/hybrid.hpp"
#include "reptile/corrector.hpp"
#include "seq/kmer.hpp"
#include "shrec/shrec.hpp"
#include "util/thread_pool.hpp"

namespace ngs::core {
namespace {

/// The misread model for REDEEM-based methods: the exact simulator model
/// when the caller has it, otherwise the default Illumina profile at the
/// configured average rate, sized to the longest read seen.
sim::ErrorModel misread_model(const CorrectorConfig& config,
                              std::size_t max_read_length, int k) {
  if (config.error_model) return *config.error_model;
  const std::size_t len = std::max(max_read_length, static_cast<std::size_t>(k));
  return sim::ErrorModel::illumina(len, config.error_rate);
}

/// Throws std::invalid_argument unless `spectrum_k`, the length of the
/// k-mers `method` counts at its k, fits one packed code.
void require_spectrum_k(std::string_view method, int k,
                        std::int64_t spectrum_k) {
  if (spectrum_k < 1 || spectrum_k > seq::kMaxK) {
    throw std::invalid_argument(
        std::string(method) + ": k=" + std::to_string(k) + " needs a " +
        std::to_string(spectrum_k) + "-mer spectrum, outside [1, " +
        std::to_string(seq::kMaxK) + "]");
  }
}

/// Throws std::invalid_argument unless the error rate a misread model is
/// built from is a probability (NaN included).
void require_error_rate(std::string_view method, double error_rate) {
  if (!(error_rate >= 0.0 && error_rate <= 1.0)) {
    throw std::invalid_argument(std::string(method) + ": error rate " +
                                std::to_string(error_rate) +
                                " outside [0, 1]");
  }
}

InputSummary summarize(const seq::ReadSet& reads) {
  InputSummary summary;
  for (const auto& r : reads.reads) summary.add(r);
  return summary;
}

/// The report note for the parameters Reptile chose, e.g.
/// "k:10,tile:20,Qc:12,Cg:30,Cm:7".
std::string params_note(const reptile::ReptileParams& p) {
  return "k:" + std::to_string(p.k) + ",tile:" +
         std::to_string(p.tile_length()) + ",Qc:" +
         std::to_string(p.quality_cutoff) + ",Cg:" +
         std::to_string(p.c_good) + ",Cm:" + std::to_string(p.c_min);
}

/// Per-worker scratch for the Reptile adapter: the corrector's option /
/// candidate / sweep buffers, reused across every batch a worker runs.
struct ReptileScratch final : BatchScratch {
  reptile::ReptileCorrector::Scratch scratch;
};

class ReptileAdapter final : public Corrector {
 public:
  explicit ReptileAdapter(const CorrectorConfig& config) : config_(config) {}

  std::string_view method() const noexcept override { return "reptile"; }

  void build(const seq::ReadSet& reads) override {
    build_streamed(seq::pass_over(reads, util::default_pool().size()));
  }

  void build_streamed(const seq::ReadPass& pass) override {
    // Qc and Qm come from the qualities phase 1 streams, and Cg and Cm
    // from the corrector's own tile table, so the tiles are counted once.
    corrector_.emplace(
        pass, reptile::select_k(config_.genome_length, config_.k),
        reptile::ReptileCorrector::QualityCutoffs::kFromReads);
    corrector_->choose_thresholds();
    // One concurrent tile-decision memo shared by every correction
    // worker: at coverage c each erroneous tile is decided once and
    // reused ~c times. Decisions are pure functions of the tile code, so
    // sharing across threads cannot change output.
    if (config_.tile_cache_mb > 0 && corrector_->cacheable()) {
      cache_ = std::make_unique<reptile::TileDecisionCache>(
          config_.tile_cache_mb << 20);
    }
    mark_ready();
  }

  std::unique_ptr<BatchScratch> make_scratch() const override {
    return std::make_unique<ReptileScratch>();
  }

  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out, CorrectionReport& report,
                     BatchScratch* scratch) const override {
    require_ready();
    ReptileScratch local_scratch;
    auto* rs = dynamic_cast<ReptileScratch*>(scratch);
    if (rs == nullptr) rs = &local_scratch;
    reptile::CorrectionStats stats;
    for (const auto& read : in) {
      auto corrected =
          corrector_->correct(read, stats, rs->scratch, cache_.get());
      tally_read(read, corrected, report);
      out.push_back(std::move(corrected));
    }
    report.bump("tiles_valid", stats.tiles_valid);
    report.bump("tiles_corrected", stats.tiles_corrected);
    report.bump("tiles_insufficient", stats.tiles_insufficient);
    report.bump("ambiguous_converted", stats.ambiguous_converted);
  }

  void annotate_report(CorrectionReport& report) const override {
    if (corrector_) {
      report.note("reptile_params", params_note(corrector_->params()));
    }
    if (!cache_) return;
    // Count decisions, not lookups: a tile two workers miss at once is
    // decided twice but inserted once, so while nothing is evicted both
    // counts repeat exactly at every worker count.
    const auto stats = cache_->stats();
    const std::uint64_t lookups = stats.hits + stats.misses;
    report.bump("tile_cache_hits", lookups - stats.insertions);
    report.bump("tile_cache_misses", stats.insertions);
    report.bump("tile_cache_evictions", stats.evictions);
  }

 private:
  CorrectorConfig config_;
  std::optional<reptile::ReptileCorrector> corrector_;
  /// Thread-safe (lock-striped); mutated during const correct_batch.
  std::unique_ptr<reptile::TileDecisionCache> cache_;
};

/// Per-worker scratch for the SAP adapter: the corrector's window-code,
/// prefix-sum and visit-order buffers, reused across every batch.
struct SapScratch final : BatchScratch {
  baselines::SapCorrector::Scratch scratch;
};

class SapAdapter final : public Corrector {
 public:
  explicit SapAdapter(const CorrectorConfig& config) {
    if (config.k > 0) params_.k = config.k;
    require_spectrum_k(method(), params_.k, params_.k);
  }

  std::string_view method() const noexcept override { return "sap"; }
  int spectrum_k() const noexcept override { return params_.k; }
  bool spectrum_both_strands() const noexcept override {
    return params_.both_strands;
  }

  void build_from_spectrum(kspec::KSpectrum spectrum,
                           const InputSummary& /*input*/) override {
    // SAP keeps only the solid codes, so `spectrum` (and any mapping it
    // pins) is released when this call returns.
    corrector_.emplace(spectrum, params_);
    mark_ready();
  }

  std::unique_ptr<BatchScratch> make_scratch() const override {
    return std::make_unique<SapScratch>();
  }

  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out, CorrectionReport& report,
                     BatchScratch* scratch) const override {
    require_ready();
    SapScratch local_scratch;
    auto* ss = dynamic_cast<SapScratch*>(scratch);
    if (ss == nullptr) ss = &local_scratch;
    baselines::SapStats stats;
    for (const auto& read : in) {
      auto corrected = corrector_->correct(read, stats, ss->scratch);
      tally_read(read, corrected, report);
      out.push_back(std::move(corrected));
    }
    report.bump("reads_clean", stats.reads_clean);
    report.bump("reads_fixed", stats.reads_fixed);
    report.bump("reads_unfixable", stats.reads_unfixable);
  }

 private:
  baselines::SapParams params_;
  std::optional<baselines::SapCorrector> corrector_;
};

class HitecAdapter final : public Corrector {
 public:
  explicit HitecAdapter(const CorrectorConfig& config) {
    if (config.k > 0) params_.k = config.k;
    require_spectrum_k(method(), params_.k, std::int64_t{params_.k} + 1);
  }

  std::string_view method() const noexcept override { return "hitec"; }
  int spectrum_k() const noexcept override { return params_.k + 1; }

  void build_from_spectrum(kspec::KSpectrum spectrum,
                           const InputSummary& /*input*/) override {
    corrector_.emplace(std::move(spectrum), params_);
    mark_ready();
  }

  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out, CorrectionReport& report,
                     BatchScratch* /*scratch*/) const override {
    require_ready();
    baselines::HitecStats stats;
    for (const auto& read : in) {
      auto corrected = corrector_->correct(read, stats);
      tally_read(read, corrected, report);
      out.push_back(std::move(corrected));
    }
    report.bump("corrections", stats.corrections);
    report.bump("ambiguous_sites", stats.ambiguous_sites);
  }

 private:
  baselines::HitecParams params_;
  std::optional<baselines::HitecCorrector> corrector_;
};

class RedeemAdapter final : public Corrector {
 public:
  explicit RedeemAdapter(const CorrectorConfig& config)
      : config_(config), k_(config.k > 0 ? config.k : 11) {
    require_spectrum_k(method(), k_, k_);
    require_error_rate(method(), config.error_rate);
  }

  std::string_view method() const noexcept override { return "redeem"; }
  int spectrum_k() const noexcept override { return k_; }
  bool spectrum_both_strands() const noexcept override { return false; }

  void build_from_spectrum(kspec::KSpectrum spectrum,
                           const InputSummary& input) override {
    const auto model = misread_model(config_, input.max_read_length, k_);
    spectrum_ = std::move(spectrum);
    q_ = redeem::kmer_error_matrices(redeem::ErrorDistKind::kTrueIllumina, k_,
                                     model);
    model_.emplace(spectrum_, q_, redeem::RedeemParams{});
    corrector_.emplace(*model_, redeem::RedeemCorrectorParams{});
    mark_ready();
  }

  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out, CorrectionReport& report,
                     BatchScratch* /*scratch*/) const override {
    require_ready();
    redeem::RedeemCorrectionStats stats;
    for (const auto& read : in) {
      auto corrected = corrector_->correct(read, stats);
      tally_read(read, corrected, report);
      out.push_back(std::move(corrected));
    }
    report.bump("reads_flagged", stats.reads_flagged);
  }

 private:
  CorrectorConfig config_;
  int k_;
  kspec::KSpectrum spectrum_;  // owned here: RedeemModel keeps a pointer
  std::vector<sim::MisreadMatrix> q_;
  std::optional<redeem::RedeemModel> model_;
  std::optional<redeem::RedeemCorrector> corrector_;
};

class ShrecAdapter final : public Corrector {
 public:
  explicit ShrecAdapter(const CorrectorConfig& config) {
    params_.genome_length = config.genome_length;
  }

  std::string_view method() const noexcept override { return "shrec"; }
  bool supports_batches() const noexcept override { return false; }

  void build(const seq::ReadSet& /*reads*/) override {
    // SHREC rebuilds its level statistics from the working reads every
    // iteration; there is no separable index.
    mark_ready();
  }

  std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                     CorrectionReport& report) const override {
    require_ready();
    shrec::ShrecCorrector corrector(params_);
    shrec::ShrecStats stats;
    auto out = corrector.correct_all(reads, stats);
    for (std::size_t i = 0; i < out.size(); ++i) {
      tally_read(reads.reads[i], out[i], report);
    }
    report.bump("flagged_positions", stats.flagged_positions);
    report.bump("corrections_applied", stats.corrections_applied);
    report.bump("conflicting_votes", stats.conflicting_votes);
    return out;
  }

 private:
  shrec::ShrecParams params_;
};

class FrecluAdapter final : public Corrector {
 public:
  explicit FrecluAdapter(const CorrectorConfig& /*config*/) {}

  std::string_view method() const noexcept override { return "freclu"; }
  bool supports_batches() const noexcept override { return false; }

  void build(const seq::ReadSet& /*reads*/) override { mark_ready(); }

  std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                     CorrectionReport& report) const override {
    require_ready();
    baselines::FrecluCorrector corrector(params_);
    baselines::FrecluStats stats;
    auto out = corrector.correct_all(reads, stats);
    for (std::size_t i = 0; i < out.size(); ++i) {
      tally_read(reads.reads[i], out[i], report);
    }
    report.bump("distinct_sequences", stats.distinct_sequences);
    report.bump("trees", stats.trees);
    report.bump("reads_corrected", stats.reads_corrected);
    return out;
  }

 private:
  baselines::FrecluParams params_;
};

class HybridAdapter final : public Corrector {
 public:
  explicit HybridAdapter(const CorrectorConfig& config) : config_(config) {
    require_error_rate(method(), config.error_rate);
  }

  std::string_view method() const noexcept override { return "hybrid"; }
  bool supports_batches() const noexcept override { return false; }

  void build(const seq::ReadSet& /*reads*/) override {
    // Both stages derive their tables from the reads handed to
    // correct_all (stage 2 rebuilds Reptile from stage-1 output).
    mark_ready();
  }

  std::vector<seq::Read> correct_all(const seq::ReadSet& reads,
                                     CorrectionReport& report) const override {
    require_ready();
    // Stage 2 corrects the stage-1 output, so Cg and Cm come from a tile
    // table counted here from the raw reads.
    redeem::HybridParams params;
    params.reptile =
        reptile::select_parameters(reads, config_.genome_length, config_.k);
    const auto model =
        misread_model(config_, summarize(reads).max_read_length,
                      params.redeem_k);
    const auto q = redeem::kmer_error_matrices(
        redeem::ErrorDistKind::kTrueIllumina, params.redeem_k, model);
    redeem::HybridCorrector corrector(q, params);
    redeem::HybridStats stats;
    auto out = corrector.correct_all(reads, stats);
    for (std::size_t i = 0; i < out.size(); ++i) {
      tally_read(reads.reads[i], out[i], report);
    }
    report.bump("reads_flagged", stats.redeem.reads_flagged);
    report.bump("redeem_bases_changed", stats.redeem.bases_changed);
    report.bump("reptile_bases_changed", stats.reptile.bases_changed);
    report.bump("tiles_corrected", stats.reptile.tiles_corrected);
    report.note("reptile_params", params_note(params.reptile));
    return out;
  }

 private:
  CorrectorConfig config_;
};

template <typename AdapterT>
void register_builtin(const char* name, const char* description) {
  register_corrector(
      MethodInfo{name, description},
      [](const CorrectorConfig& config) -> std::unique_ptr<Corrector> {
        return std::make_unique<AdapterT>(config);
      });
}

}  // namespace

namespace detail {

void register_builtins() {
  register_builtin<ReptileAdapter>(
      "reptile", "Reptile tile-voting k-spectrum corrector (Ch. 2)");
  register_builtin<ShrecAdapter>(
      "shrec", "SHREC suffix-statistic corrector (whole-set)");
  register_builtin<SapAdapter>(
      "sap", "spectrum-alignment greedy solid-kmer corrector");
  register_builtin<HitecAdapter>("hitec", "HiTEC witness-extension corrector");
  register_builtin<FrecluAdapter>(
      "freclu", "FreClu frequency-hierarchy whole-read corrector");
  register_builtin<RedeemAdapter>(
      "redeem", "REDEEM EM posterior corrector (Ch. 3)");
  register_builtin<HybridAdapter>(
      "hybrid", "REDEEM->Reptile two-stage hybrid (Sec. 3.5)");
}

}  // namespace detail
}  // namespace ngs::core
