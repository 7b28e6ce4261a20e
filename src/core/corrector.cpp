#include "core/corrector.hpp"

#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace ngs::core {

void CorrectionReport::bump(std::string_view key, std::uint64_t delta) {
  for (auto& [name, value] : extras) {
    if (name == key) {
      value += delta;
      return;
    }
  }
  extras.emplace_back(std::string(key), delta);
}

std::uint64_t CorrectionReport::extra(std::string_view key) const noexcept {
  for (const auto& [name, value] : extras) {
    if (name == key) return value;
  }
  return 0;
}

void CorrectionReport::note(std::string_view key, std::string_view value) {
  for (auto& [name, existing] : notes) {
    if (name == key) {
      existing = std::string(value);
      return;
    }
  }
  notes.emplace_back(std::string(key), std::string(value));
}

std::string_view CorrectionReport::note_or(
    std::string_view key) const noexcept {
  for (const auto& [name, value] : notes) {
    if (name == key) return value;
  }
  return {};
}

void CorrectionReport::merge(const CorrectionReport& other) {
  reads += other.reads;
  reads_changed += other.reads_changed;
  bases_changed += other.bases_changed;
  for (const auto& [name, value] : other.extras) bump(name, value);
  for (const auto& [name, value] : other.notes) {
    if (note_or(name).empty()) note(name, value);
  }
}

std::string CorrectionReport::summary() const {
  std::ostringstream os;
  os << reads << " reads, " << reads_changed << " changed, " << bases_changed
     << " bases";
  if (!extras.empty() || !notes.empty()) {
    os << ";";
    for (const auto& [name, value] : extras) os << ' ' << name << '=' << value;
    for (const auto& [name, value] : notes) os << ' ' << name << '=' << value;
  }
  return os.str();
}

void tally_read(const seq::Read& before, const seq::Read& after,
                CorrectionReport& report) {
  ++report.reads;
  if (before.bases == after.bases) return;
  ++report.reads_changed;
  if (before.bases.size() == after.bases.size()) {
    for (std::size_t i = 0; i < before.bases.size(); ++i) {
      report.bases_changed += before.bases[i] != after.bases[i];
    }
  } else {
    // No method here resizes reads, but count a length change defensively
    // as the larger of the two lengths.
    report.bases_changed +=
        std::max(before.bases.size(), after.bases.size());
  }
}

void Corrector::build_from_spectrum(kspec::KSpectrum /*spectrum*/,
                                    const InputSummary& /*input*/) {
  throw std::logic_error(std::string(method()) +
                         ": streaming spectrum build not supported");
}

void Corrector::build(const seq::ReadSet& reads) {
  if (spectrum_k() <= 0) {
    throw std::logic_error(std::string(method()) +
                           ": phase 1 is not a k-spectrum and needs its own "
                           "build");
  }
  InputSummary input;
  for (const auto& r : reads.reads) input.add(r);
  build_from_spectrum(
      kspec::KSpectrum::build(reads, spectrum_k(), spectrum_both_strands()),
      input);
}

void Corrector::build_streamed(const seq::ReadPass& pass) {
  seq::ReadSet reads;
  pass([&reads](std::span<const seq::Read> batch, std::size_t) {
    return [&reads, batch] {
      reads.reads.insert(reads.reads.end(), batch.begin(), batch.end());
    };
  });
  build(reads);
}

void Corrector::correct_batch(std::span<const seq::Read> /*in*/,
                              std::vector<seq::Read>& /*out*/,
                              CorrectionReport& /*report*/,
                              BatchScratch* /*scratch*/) const {
  throw std::logic_error(std::string(method()) +
                         ": whole-set method has no batch correction");
}

void Corrector::annotate_report(CorrectionReport& /*report*/) const {}

std::vector<seq::Read> Corrector::correct_all(const seq::ReadSet& reads,
                                              CorrectionReport& report) const {
  require_ready();
  std::vector<seq::Read> out(reads.size());
  std::mutex report_mutex;
  util::default_pool().parallel_for_blocked(
      0, reads.size(), [&](std::size_t lo, std::size_t hi) {
        CorrectionReport local;
        std::vector<seq::Read> block;
        block.reserve(hi - lo);
        const auto scratch = make_scratch();
        correct_batch({reads.reads.data() + lo, hi - lo}, block, local,
                      scratch.get());
        for (std::size_t i = 0; i < block.size(); ++i) {
          out[lo + i] = std::move(block[i]);
        }
        std::lock_guard<std::mutex> lock(report_mutex);
        report.merge(local);
      });
  return out;
}

void Corrector::require_ready() const {
  if (!ready_) {
    throw std::logic_error(std::string(method()) +
                           ": correct called before build");
  }
}

}  // namespace ngs::core
