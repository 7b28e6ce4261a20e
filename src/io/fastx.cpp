#include "io/fastx.hpp"

#include <istream>
#include <ostream>

#include "io/fastq_stream.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace ngs::io {
namespace {

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

seq::ReadSet read_fastq_named(std::istream& is, const std::string& name) {
  seq::ReadSet set;
  FastqStreamReader reader(is, name);
  seq::Read read;
  while (reader.next(read)) {
    set.reads.push_back(std::move(read));
    read = seq::Read{};
  }
  return set;
}

}  // namespace

seq::ReadSet read_fastq(std::istream& is) {
  return read_fastq_named(is, "<stream>");
}

seq::ReadSet read_fastq_file(const std::string& path) {
  auto is = open_input_stream(path);
  return read_fastq_named(*is, path);
}

seq::ReadSet read_fasta(std::istream& is, const std::string& name) {
  seq::ReadSet set;
  std::string line;
  std::uint64_t lineno = 0;
  seq::Read current;
  bool in_record = false;
  auto flush = [&] {
    if (in_record) set.reads.push_back(std::move(current));
    current = seq::Read{};
  };
  while (std::getline(is, line)) {
    ++lineno;
    strip_cr(line);
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      in_record = true;
      current.id = line.substr(1);
    } else {
      if (!in_record) {
        throw Error(ErrorKind::kParse, "io.fasta.parse",
                    name + ": line " + std::to_string(lineno) +
                        ": FASTA: sequence before first header");
      }
      current.bases += line;
    }
  }
  flush();
  return set;
}

seq::ReadSet read_fasta_file(const std::string& path) {
  auto is = open_input_stream(path);
  return read_fasta(*is, path);
}

void write_fastq(std::ostream& os, std::span<const seq::Read> reads,
                 std::uint8_t default_quality) {
  for (const auto& r : reads) {
    os << '@' << r.id << '\n' << r.bases << "\n+\n";
    if (r.quality.size() == r.bases.size()) {
      for (std::uint8_t q : r.quality) {
        os << static_cast<char>(q + kPhredOffset);
      }
    } else {
      for (std::size_t i = 0; i < r.bases.size(); ++i) {
        os << static_cast<char>(default_quality + kPhredOffset);
      }
    }
    os << '\n';
  }
}

void write_fastq(std::ostream& os, const seq::ReadSet& reads,
                 std::uint8_t default_quality) {
  write_fastq(os, std::span<const seq::Read>(reads.reads), default_quality);
}

void write_fastq_file(const std::string& path, const seq::ReadSet& reads,
                      std::uint8_t default_quality) {
  // Through util::AtomicFile, so a failed write leaves no partial file.
  util::AtomicFile file(path);
  file.write_through(
      [&](std::ostream& os) { write_fastq(os, reads, default_quality); });
  file.commit();
}

void write_fasta(std::ostream& os, const seq::ReadSet& reads,
                 std::size_t line_width) {
  for (const auto& r : reads.reads) {
    os << '>' << r.id << '\n';
    if (line_width == 0) {
      os << r.bases << '\n';
    } else {
      for (std::size_t i = 0; i < r.bases.size(); i += line_width) {
        os << r.bases.substr(i, line_width) << '\n';
      }
    }
  }
}

}  // namespace ngs::io
