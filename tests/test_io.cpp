#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace {

using namespace ngs;

seq::ReadSet two_reads() {
  seq::ReadSet set;
  seq::Read a;
  a.id = "read1";
  a.bases = "ACGTACGT";
  a.quality = {30, 31, 32, 33, 34, 35, 36, 37};
  seq::Read b;
  b.id = "read2 with description";
  b.bases = "TTNNA";
  b.quality = {2, 2, 2, 40, 40};
  set.reads = {a, b};
  return set;
}

TEST(Fastq, RoundTrip) {
  const auto original = two_reads();
  std::stringstream ss;
  io::write_fastq(ss, original);
  const auto parsed = io::read_fastq(ss);
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed.reads[i].id, original.reads[i].id);
    EXPECT_EQ(parsed.reads[i].bases, original.reads[i].bases);
    EXPECT_EQ(parsed.reads[i].quality, original.reads[i].quality);
  }
}

TEST(Fastq, DefaultQualityWhenMissing) {
  seq::ReadSet set;
  set.reads.push_back({"r", "ACGT", {}});
  std::stringstream ss;
  io::write_fastq(ss, set, 25);
  const auto parsed = io::read_fastq(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.reads[0].quality,
            (std::vector<std::uint8_t>{25, 25, 25, 25}));
}

TEST(Fastq, RejectsMalformedRecords) {
  {
    std::stringstream ss("not-a-header\nACGT\n+\nIIII\n");
    EXPECT_THROW(io::read_fastq(ss), std::runtime_error);
  }
  {
    std::stringstream ss("@r\nACGT\n+\nII\n");  // quality length mismatch
    EXPECT_THROW(io::read_fastq(ss), std::runtime_error);
  }
  {
    std::stringstream ss("@r\nACGT\n");  // truncated
    EXPECT_THROW(io::read_fastq(ss), std::runtime_error);
  }
}

TEST(Fastq, HandlesCrLf) {
  std::stringstream ss("@r\r\nACGT\r\n+\r\nIIII\r\n");
  const auto parsed = io::read_fastq(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.reads[0].bases, "ACGT");
}

TEST(Fasta, RoundTripMultiline) {
  seq::ReadSet set;
  set.reads.push_back({"genome", std::string(200, 'A'), {}});
  set.reads[0].bases[50] = 'C';
  std::stringstream ss;
  io::write_fasta(ss, set, 60);
  const auto parsed = io::read_fasta(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.reads[0].bases, set.reads[0].bases);
  EXPECT_EQ(parsed.reads[0].id, "genome");
}

TEST(Fasta, MultipleRecordsAndBlankLines) {
  std::stringstream ss(">a\nACGT\n\n>b\nTT\nGG\n");
  const auto parsed = io::read_fasta(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.reads[0].bases, "ACGT");
  EXPECT_EQ(parsed.reads[1].bases, "TTGG");
}

TEST(Fasta, RejectsSequenceBeforeHeader) {
  std::stringstream ss("ACGT\n>a\nACGT\n");
  EXPECT_THROW(io::read_fasta(ss), std::runtime_error);
}

TEST(FastxFiles, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/ngs_test.fastq";
  const auto original = two_reads();
  io::write_fastq_file(path, original);
  const auto parsed = io::read_fastq_file(path);
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed.reads[1].bases, original.reads[1].bases);
  EXPECT_THROW(io::read_fastq_file("/nonexistent/nope.fastq"),
               std::runtime_error);
}

TEST(FastxFiles, MissingFileErrorIsTypedAndNamesThePath) {
  try {
    io::read_fastq_file("/nonexistent/nope.fastq");
    FAIL() << "expected open failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nope.fastq"),
              std::string::npos);
  }
}

TEST(FastxFiles, UnwritableOutputIsTypedNamesTheTargetAndLeavesNothing) {
  const std::string dir = testing::TempDir() + "/ngs_no_such_dir";
  const std::string path = dir + "/out.fastq";
  try {
    io::write_fastq_file(path, two_reads());
    FAIL() << "expected a write failure for " << path;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_EQ(what.find(".tmp."), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(FastxFiles, StreamWriterPublishesOnlyCommittedWholeFiles) {
  const std::string path = testing::TempDir() + "/ngs_write_through.txt";
  std::remove(path.c_str());
  {
    util::AtomicFile file(path);
    EXPECT_THROW(file.write_through([](std::ostream& os) {
      os << "partial";
      throw Error(ErrorKind::kIo, "test.site", "fill failed");
    }),
                 Error);
  }  // destroyed uncommitted: the temp file goes with it
  EXPECT_FALSE(std::filesystem::exists(path));
  util::AtomicFile file(path);
  file.write_through([](std::ostream& os) { os << "whole\n"; });
  EXPECT_FALSE(std::filesystem::exists(path)) << "visible before commit";
  file.commit();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "whole");
  for (const auto& entry :
       std::filesystem::directory_iterator(testing::TempDir())) {
    EXPECT_EQ(entry.path().filename().string().find("ngs_write_through.txt."),
              std::string::npos)
        << "temp file left behind: " << entry.path();
  }
  std::remove(path.c_str());
}

TEST(Fastq, ParseErrorsCarryRecordAndLineLocation) {
  // Record 2 is malformed: quality shorter than bases, starting line 5.
  std::istringstream is(
      "@r1\nACGT\n+\nIIII\n@r2\nACGTACGT\n+\nIII\n@r3\nTT\n+\nII\n");
  io::FastqStreamReader reader(is, "reads.fastq");
  seq::Read r;
  EXPECT_TRUE(reader.next(r));
  try {
    reader.next(r);
    FAIL() << "expected parse failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find("reads.fastq"), std::string::npos) << what;
    EXPECT_NE(what.find("record 2"), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
}

TEST(Fastq, FileParseErrorsNameTheFile) {
  const std::string path = testing::TempDir() + "/ngs_bad.fastq";
  {
    std::ofstream os(path);
    os << "@r1\nACGT\n+\nIIII\nACGT\n+\nIIII\n";  // record 2: no '@'
  }
  try {
    io::read_fastq_file(path);
    FAIL() << "expected parse failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("record 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Fastq, SkipPolicyCountsAndResyncsPastBadRecords) {
  // Two good records bracketing one with a truncated quality line.
  std::istringstream is(
      "@r1\nACGT\n+\nIIII\n@bad\nACGT\n+\nII\n@r3\nTTTT\n+\nJJJJ\n");
  io::FastqStreamReader reader(is, "reads.fastq");
  reader.set_bad_record_policy(io::BadRecordPolicy::kSkip);
  std::vector<std::string> ids;
  seq::Read r;
  while (reader.next(r)) ids.push_back(r.id);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "r1");
  EXPECT_EQ(ids[1], "r3");
  EXPECT_EQ(reader.records(), 2u);
  EXPECT_GE(reader.records_skipped(), 1u);
}

TEST(Fastq, SkipPolicyHandlesTruncatedTail) {
  std::istringstream is("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n");  // EOF mid-record
  io::FastqStreamReader reader(is);
  reader.set_bad_record_policy(io::BadRecordPolicy::kSkip);
  seq::Read r;
  EXPECT_TRUE(reader.next(r));
  EXPECT_FALSE(reader.next(r)) << "truncated tail is skipped, not fatal";
  EXPECT_EQ(reader.records_skipped(), 1u);
}

TEST(Fasta, ParseErrorsCarryNameAndLine) {
  std::istringstream is("ACGT\n");  // sequence before any header
  try {
    io::read_fasta(is, "genome.fasta");
    FAIL() << "expected parse failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find("genome.fasta"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
}

}  // namespace
