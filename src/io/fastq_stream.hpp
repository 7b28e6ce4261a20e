#pragma once
// Incremental FASTQ reading for the streaming correction pipeline
// (core::CorrectionPipeline): records are parsed one at a time or in
// bounded batches, so huge inputs never have to be materialized as a
// whole seq::ReadSet. Parsing semantics (error conditions, CR stripping,
// Phred offset) are identical to io::read_fastq, which is implemented on
// top of this reader.
//
// Failure model: every error is a typed ngs::Error whose message names
// the source, record number, and line number ("reads.fastq: record 12
// (line 47): ..."). Malformed records raise kParse; with
// BadRecordPolicy::kSkip the reader instead counts the record, resyncs
// to the next plausible header line, and keeps going — the tolerant
// mode behind ngs-correct --on-bad-record skip. Stream-level I/O
// failures (and the io.fastq.* injection sites, see fault::sites) raise
// kIo regardless of policy.

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "seq/read.hpp"
#include "util/error.hpp"

namespace ngs::io {

/// What to do when a malformed FASTQ record is encountered.
enum class BadRecordPolicy {
  kFail,  // throw ngs::Error(kParse) with the record's location
  kSkip,  // count it, resync to the next header, continue
};

/// Opens `path` for reading; throws ngs::Error(kIo) naming the path on
/// failure. This is the shared open primitive (injection site
/// io.fastq.open) used by the reader, io::read_* and the pipeline.
std::unique_ptr<std::istream> open_input_stream(const std::string& path);

class FastqStreamReader {
 public:
  /// Reads from a caller-owned stream (not copied; must outlive the
  /// reader). `name` labels the source in error messages.
  explicit FastqStreamReader(std::istream& is,
                             std::string name = "<stream>");

  /// Opens `path` and owns the file stream. Throws ngs::Error(kIo) if
  /// the file cannot be opened.
  explicit FastqStreamReader(const std::string& path);

  /// Policy for malformed records (default kFail).
  void set_bad_record_policy(BadRecordPolicy policy) noexcept {
    policy_ = policy;
  }
  BadRecordPolicy bad_record_policy() const noexcept { return policy_; }

  /// Parses the next record into `read`. Returns false at clean EOF.
  /// Throws ngs::Error(kParse) on malformed input (truncated record,
  /// missing '+' separator, sequence/quality length mismatch, bad
  /// header, quality below the Sanger offset) under kFail, or skips and
  /// keeps scanning under kSkip; ngs::Error(kIo) on stream failure.
  bool next(seq::Read& read);

  /// Appends up to `max_reads` records to `out`; returns how many were
  /// appended (0 at EOF). `out` is not cleared.
  std::size_t read_batch(std::vector<seq::Read>& out, std::size_t max_reads);

  /// Total records parsed so far.
  std::uint64_t records() const noexcept { return records_; }

  /// Input bytes consumed so far (line bytes + newlines; CRs included).
  std::uint64_t bytes_consumed() const noexcept { return bytes_; }

  /// Malformed records skipped so far (kSkip policy only).
  std::uint64_t records_skipped() const noexcept { return skipped_; }

  /// 1-based number of the last input line consumed.
  std::uint64_t line() const noexcept { return line_; }

  /// Source label used in error messages.
  const std::string& name() const noexcept { return name_; }

 private:
  bool parse_record(seq::Read& read);
  bool resync();
  bool getline_counted(std::string& out);
  [[noreturn]] void fail_parse(const std::string& detail) const;

  std::unique_ptr<std::istream> owned_;  // set only for the path ctor
  std::istream* is_;
  std::string name_;
  std::uint64_t records_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t line_ = 0;
  std::uint64_t bytes_ = 0;
  BadRecordPolicy policy_ = BadRecordPolicy::kFail;
  bool pending_header_ = false;  // header_ holds a resynced header line
  // Scratch lines reused across records to avoid per-record allocation.
  std::string header_, bases_, plus_, qual_;
};

}  // namespace ngs::io
