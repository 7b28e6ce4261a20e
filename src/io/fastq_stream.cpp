#include "io/fastq_stream.hpp"

#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "io/fastx.hpp"

namespace ngs::io {
namespace {

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

std::unique_ptr<std::istream> open_input_stream(const std::string& path) {
  fault::maybe_fail(fault::sites::kFastqOpen, ErrorKind::kIo,
                    "cannot open for reading: " + path);
  auto is = std::make_unique<std::ifstream>(path);
  if (!*is) {
    throw Error(ErrorKind::kIo, fault::sites::kFastqOpen,
                "cannot open for reading: " + path);
  }
  return is;
}

FastqStreamReader::FastqStreamReader(std::istream& is, std::string name)
    : is_(&is), name_(std::move(name)) {}

FastqStreamReader::FastqStreamReader(const std::string& path)
    : owned_(open_input_stream(path)), name_(path) {
  is_ = owned_.get();
}

void FastqStreamReader::fail_parse(const std::string& detail) const {
  std::ostringstream os;
  os << name_ << ": record " << (records_ + skipped_ + 1) << " (line "
     << line_ << "): " << detail;
  throw Error(ErrorKind::kParse, fault::sites::kFastqMalformed, os.str());
}

bool FastqStreamReader::getline_counted(std::string& out) {
  if (!std::getline(*is_, out)) {
    if (is_->bad()) {
      throw Error(ErrorKind::kIo, fault::sites::kFastqRead,
                  name_ + ": read failed at line " +
                      std::to_string(line_ + 1));
    }
    return false;  // clean EOF
  }
  ++line_;
  bytes_ += out.size() + 1;  // + the newline getline consumed
  strip_cr(out);
  return true;
}

bool FastqStreamReader::parse_record(seq::Read& read) {
  fault::maybe_fail(fault::sites::kFastqRead, ErrorKind::kIo,
                    name_ + ": read failed at line " +
                        std::to_string(line_ + 1));
  if (pending_header_) {
    pending_header_ = false;  // header_ already holds the next header
  } else {
    // Skip blank lines between records (as read_fastq always has).
    do {
      if (!getline_counted(header_)) return false;
    } while (header_.empty());
  }

  if (header_.empty() || header_[0] != '@') {
    fail_parse("expected '@' header, got: " + header_);
  }
  if (!getline_counted(bases_) || !getline_counted(plus_) ||
      !getline_counted(qual_)) {
    fail_parse("truncated record: " + header_);
  }
  if (plus_.empty() || plus_[0] != '+') {
    fail_parse("expected '+' separator: " + header_);
  }
  if (bases_.size() != qual_.size()) {
    fail_parse("sequence/quality length mismatch: " + header_);
  }
  if (fault::should_fire(fault::sites::kFastqMalformed)) {
    fail_parse("injected malformed record: " + header_);
  }
  read.id.assign(header_, 1, std::string::npos);
  read.bases = bases_;
  read.quality.clear();
  read.quality.reserve(qual_.size());
  for (char c : qual_) {
    const int q = static_cast<unsigned char>(c) - kPhredOffset;
    if (q < 0) fail_parse("quality below offset: " + header_);
    read.quality.push_back(static_cast<std::uint8_t>(q));
  }
  ++records_;
  return true;
}

bool FastqStreamReader::resync() {
  // Scan forward for the next plausible record start. A quality line can
  // legitimately begin with '@', so this is a heuristic — but a
  // deterministic one, and the skipped-record counter makes the loss
  // visible in the report.
  while (getline_counted(header_)) {
    if (!header_.empty() && header_[0] == '@') {
      pending_header_ = true;
      return true;
    }
  }
  return false;  // EOF while resyncing
}

bool FastqStreamReader::next(seq::Read& read) {
  for (;;) {
    try {
      return parse_record(read);
    } catch (const Error& e) {
      if (e.kind() != ErrorKind::kParse ||
          policy_ == BadRecordPolicy::kFail) {
        throw;
      }
      ++skipped_;
      if (!resync()) return false;
    }
  }
}

std::size_t FastqStreamReader::read_batch(std::vector<seq::Read>& out,
                                          std::size_t max_reads) {
  std::size_t appended = 0;
  seq::Read read;
  while (appended < max_reads && next(read)) {
    out.push_back(std::move(read));
    read = seq::Read{};
    ++appended;
  }
  return appended;
}

}  // namespace ngs::io
