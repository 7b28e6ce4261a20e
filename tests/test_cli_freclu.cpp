// Tests for the CLI parser and the FreClu baseline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "baselines/freclu.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "seq/alphabet.hpp"

namespace {

using namespace ngs;

// No tool takes a bare argument: a stray word or a single-dash typo of
// a flag fails the parse, naming the argument, instead of being dropped.
TEST(Cli, ParsesOptionsAndRejectsPositionals) {
  util::CliParser cli("prog", "test");
  cli.add_option("count", "a number", true, "5");
  cli.add_option("verbose", "a switch", false);
  {
    util::CliParser ok = cli;
    const char* argv[] = {"prog", "--count", "12", "--verbose"};
    ASSERT_TRUE(ok.parse(4, argv));
    EXPECT_EQ(ok.get_int("count", 0), 12);
    EXPECT_TRUE(ok.has("verbose"));
    EXPECT_EQ(ok.get("verbose"), "1");
  }
  for (const char* stray : {"pos1", "-count", "-", ""}) {
    util::CliParser c = cli;
    const char* argv[] = {"prog", "--count", "12", stray, "--verbose"};
    EXPECT_FALSE(c.parse(5, argv)) << stray;
    EXPECT_NE(c.error().find("unexpected argument: " + std::string(stray)),
              std::string::npos)
        << c.error();
  }
}

TEST(Cli, DefaultsApply) {
  util::CliParser cli("prog", "test");
  cli.add_option("rate", "a rate", true, "0.25");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0), 0.25);
  EXPECT_EQ(cli.get("missing", "fb"), "fb");
}

TEST(Cli, RejectsUnknownAndMissingValue) {
  util::CliParser cli("prog", "test");
  cli.add_option("x", "", true);
  {
    const char* argv[] = {"prog", "--nope"};
    util::CliParser c2 = cli;
    EXPECT_FALSE(c2.parse(2, argv));
    EXPECT_FALSE(c2.error().empty());
  }
  {
    const char* argv[] = {"prog", "--x"};
    util::CliParser c3 = cli;
    EXPECT_FALSE(c3.parse(2, argv));
  }
}

TEST(Cli, GetSizeAcceptsOnlyDecimalIntegersInRange) {
  util::CliParser cli("prog", "test");
  cli.add_option("n", "a size", true, "7");
  {
    const char* argv[] = {"prog"};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(1, argv));
    EXPECT_EQ(c.get_size("n", 0, 1), 7u);
    EXPECT_EQ(c.get_size("unset", 3), 3u);
  }
  {
    const char* argv[] = {"prog", "--n", "9"};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    EXPECT_EQ(c.get_size("n", 0, 1, 9), 9u);
    EXPECT_THROW((void)c.get_size("n", 0, 1, 8), Error);
  }
  for (const char* bad : {"-1", "0", "4k", "", " 5", "+5",
                          "99999999999999999999999"}) {
    const char* argv[] = {"prog", "--n", bad};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    try {
      (void)c.get_size("n", 0, 1);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig) << bad;
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << bad;
    }
  }
}

TEST(Cli, GetIntAcceptsOnlyDecimalIntegers) {
  util::CliParser cli("prog", "test");
  cli.add_option("n", "an integer", true, "7");
  {
    const char* argv[] = {"prog"};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(1, argv));
    EXPECT_EQ(c.get_int("n", 0), 7);
    EXPECT_EQ(c.get_int("unset", -3), -3);
  }
  for (const auto& [text, value] :
       {std::pair<const char*, std::int64_t>{"0", 0}, {"-12", -12},
        {"9223372036854775807", INT64_MAX}}) {
    const char* argv[] = {"prog", "--n", text};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    EXPECT_EQ(c.get_int("n", 0), value) << text;
  }
  for (const char* bad : {"abc", "4k", "", " 5", "+5", "1.5",
                          "9223372036854775808"}) {
    const char* argv[] = {"prog", "--n", bad};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    try {
      (void)c.get_int("n", 0);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig) << bad;
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << bad;
    }
  }
}

TEST(Cli, GetDoubleAcceptsOnlyNumbersInRange) {
  util::CliParser cli("prog", "test");
  cli.add_option("rate", "a rate", true, "0.25");
  {
    const char* argv[] = {"prog"};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(1, argv));
    EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0, 0.0, 1.0), 0.25);
    EXPECT_DOUBLE_EQ(c.get_double("unset", 0.5, 0.0, 1.0), 0.5);
  }
  for (const auto& [text, value] :
       {std::pair<const char*, double>{"0", 0.0}, {"1", 1.0}, {"0.01", 0.01},
        {"1e-3", 1e-3}, {".5", 0.5}}) {
    const char* argv[] = {"prog", "--rate", text};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0, 0.0, 1.0), value) << text;
  }
  {
    const char* argv[] = {"prog", "--rate", "-3.5"};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0), -3.5);  // default range
  }
  for (const char* bad : {"abc", "-1", "1.5", "nan", "inf", "", " 0.1",
                          "+0.1", "0.1x", "1e400"}) {
    const char* argv[] = {"prog", "--rate", bad};
    util::CliParser c = cli;
    ASSERT_TRUE(c.parse(3, argv));
    try {
      (void)c.get_double("rate", 0.0, 0.0, 1.0);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig) << bad;
      EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos)
          << bad;
    }
  }
}

TEST(Cli, HelpAndUsage) {
  util::CliParser cli("prog", "does things");
  cli.add_option("alpha", "the alpha", true, "3");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
  const auto usage = cli.usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("default: 3"), std::string::npos);
}

seq::ReadSet transcript_like(util::Rng& rng) {
  // Three "molecules" with very different abundances; per-copy errors.
  std::vector<std::string> molecules;
  for (int m = 0; m < 3; ++m) {
    std::string s;
    for (int i = 0; i < 30; ++i) {
      s.push_back(seq::code_to_base(static_cast<std::uint8_t>(rng.below(4))));
    }
    molecules.push_back(s);
  }
  const std::vector<int> copies{300, 120, 40};
  seq::ReadSet reads;
  int id = 0;
  for (int m = 0; m < 3; ++m) {
    for (int c = 0; c < copies[static_cast<std::size_t>(m)]; ++c) {
      std::string s = molecules[static_cast<std::size_t>(m)];
      if (rng.bernoulli(0.15)) {  // one error in 15% of copies
        const auto pos = rng.below(s.size());
        s[pos] = seq::complement_base(s[pos]);
      }
      reads.reads.push_back({'t' + std::to_string(id++), s, {}});
    }
  }
  return reads;
}

TEST(Freclu, CollapsesErrorVariantsToRoots) {
  util::Rng rng(3);
  const auto reads = transcript_like(rng);
  baselines::FrecluCorrector corrector({});
  baselines::FrecluStats stats;
  const auto corrected = corrector.correct_all(reads, stats);
  EXPECT_GT(stats.distinct_sequences, 3u);  // error variants existed
  EXPECT_GT(stats.reads_corrected, 0u);
  // Post-correction the distinct sequence count collapses toward the
  // three true molecules.
  std::set<std::string> distinct;
  for (const auto& r : corrected) distinct.insert(r.bases);
  EXPECT_LE(distinct.size(), 6u);
  EXPECT_GE(distinct.size(), 3u);
}

TEST(Freclu, LeavesBalancedVariantsAlone) {
  // Two sequences with comparable frequency (a biological variant, not
  // an error): neither dominates 2x, so neither is corrected away.
  seq::ReadSet reads;
  for (int i = 0; i < 50; ++i) reads.reads.push_back({"a", "ACGTACGT", {}});
  for (int i = 0; i < 40; ++i) reads.reads.push_back({"b", "ACGTACGA", {}});
  baselines::FrecluCorrector corrector({});
  baselines::FrecluStats stats;
  const auto corrected = corrector.correct_all(reads, stats);
  EXPECT_EQ(stats.reads_corrected, 0u);
  EXPECT_EQ(stats.trees, 2u);
}

TEST(Freclu, EmptyInput) {
  baselines::FrecluCorrector corrector({});
  baselines::FrecluStats stats;
  seq::ReadSet empty;
  EXPECT_TRUE(corrector.correct_all(empty, stats).empty());
  EXPECT_EQ(stats.distinct_sequences, 0u);
}

}  // namespace
