#pragma once
// FASTA / FASTQ readers and writers.
//
// The benches exchange simulated datasets through standard formats so the
// library is usable on real data unchanged. Phred quality is encoded with
// the Sanger +33 offset.

#include <iosfwd>
#include <span>
#include <string>

#include "seq/read.hpp"

namespace ngs::io {

inline constexpr int kPhredOffset = 33;

/// Parses FASTQ from a stream into a ReadSet. Throws ngs::Error
/// (kind kParse, a std::runtime_error) on malformed records (truncated
/// record, length mismatch, bad header), with the source, record
/// number, and line number in the message.
seq::ReadSet read_fastq(std::istream& is);
seq::ReadSet read_fastq_file(const std::string& path);

/// Parses (multi-line) FASTA; quality vectors are left empty. `name`
/// labels the source in parse-error messages.
seq::ReadSet read_fasta(std::istream& is,
                        const std::string& name = "<stream>");
seq::ReadSet read_fasta_file(const std::string& path);

/// Writes FASTQ. Reads without quality get a constant placeholder score.
/// The span overload is the batched-write primitive of the streaming
/// correction pipeline: batches append to one stream without ever
/// forming a ReadSet. The _file writers here write through
/// util::AtomicFile: a failure throws ngs::Error(kIo) naming the path
/// and leaves no partial file.
void write_fastq(std::ostream& os, std::span<const seq::Read> reads,
                 std::uint8_t default_quality = 30);
void write_fastq(std::ostream& os, const seq::ReadSet& reads,
                 std::uint8_t default_quality = 30);
void write_fastq_file(const std::string& path, const seq::ReadSet& reads,
                      std::uint8_t default_quality = 30);

/// Writes FASTA with the given line width (0 = single line).
void write_fasta(std::ostream& os, const seq::ReadSet& reads,
                 std::size_t line_width = 70);

}  // namespace ngs::io
