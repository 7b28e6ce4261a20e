// Tests for ngs::fault — the deterministic fault-injection registry:
// spec grammar (valid and rejected forms), trigger semantics, seeded
// reproducibility, counters, the bounded transient-retry helper, and the
// tools' runner (run_tool) with its exit-code ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "fault/tool.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace ngs;

/// Every test runs against the pristine process-wide registry and
/// leaves it disarmed for whoever runs next.
class FaultRegistry : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }

  fault::Registry& reg() { return fault::Registry::instance(); }
};

TEST_F(FaultRegistry, DisarmedByDefaultAndFreeOfCharge) {
  EXPECT_FALSE(reg().enabled());
  EXPECT_FALSE(fault::should_fire(fault::sites::kFastqOpen));
  // Disarmed checks are not even counted (the fast path never reaches
  // the registry).
  EXPECT_EQ(reg().stats(fault::sites::kFastqOpen).hits, 0u);
}

TEST_F(FaultRegistry, AlwaysOnceAndNthTriggers) {
  reg().configure("io.fastq.open=always,io.fastq.read=once,index.open=n3");
  EXPECT_TRUE(reg().enabled());

  EXPECT_TRUE(fault::should_fire(fault::sites::kFastqOpen));
  EXPECT_TRUE(fault::should_fire(fault::sites::kFastqOpen));

  EXPECT_TRUE(fault::should_fire(fault::sites::kFastqRead));
  EXPECT_FALSE(fault::should_fire(fault::sites::kFastqRead));
  EXPECT_FALSE(fault::should_fire(fault::sites::kFastqRead));

  EXPECT_FALSE(fault::should_fire(fault::sites::kIndexOpen));
  EXPECT_FALSE(fault::should_fire(fault::sites::kIndexOpen));
  EXPECT_TRUE(fault::should_fire(fault::sites::kIndexOpen));
  EXPECT_FALSE(fault::should_fire(fault::sites::kIndexOpen));

  const auto stats = reg().stats(fault::sites::kIndexOpen);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.fires, 1u);
}

TEST_F(FaultRegistry, OffDisarmsASiteAndEnabledTracksIt) {
  reg().configure("io.fastq.open=always");
  EXPECT_TRUE(reg().enabled());
  reg().configure("io.fastq.open=off");
  EXPECT_FALSE(reg().enabled());
  EXPECT_FALSE(fault::should_fire(fault::sites::kFastqOpen));
}

TEST_F(FaultRegistry, ProbabilityIsSeedDeterministic) {
  const auto draw = [this](std::uint64_t seed) {
    reg().reset();
    reg().configure("core.pass2.read=p0.5,seed=" + std::to_string(seed));
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(fault::should_fire(fault::sites::kPass2Read));
    }
    return fires;
  };
  const auto a = draw(42);
  const auto b = draw(42);
  const auto c = draw(43);
  EXPECT_EQ(a, b) << "same seed must reproduce the same fault sequence";
  EXPECT_NE(a, c) << "different seeds should diverge (p=0.5, 64 draws)";
  // p=0.5 over 64 draws: all-true or all-false would indicate a broken RNG.
  const auto fired = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
}

TEST_F(FaultRegistry, UnknownSiteAndMalformedTriggersRejected) {
  for (const char* bad : {
           "no.such.site=always",       // not in the catalog
           "io.fastq.open",             // missing '=trigger'
           "io.fastq.open=",            // empty trigger
           "io.fastq.open=n0",          // nth is 1-based
           "io.fastq.open=nxyz",        // not a number
           "io.fastq.open=p1.5",        // probability out of range
           "io.fastq.open=pxyz",        // not a number
           "io.fastq.open=sometimes",   // unknown trigger word
           "seed=notanumber",           // malformed seed
           "io.fastq.open=n-1",         // would wrap to 2^64 - 1
           "io.fastq.open=n99999999999999999999",  // past 64 bits
           "io.fastq.open=pnan",        // NaN passes both comparisons
           "io.fastq.open=p1e999",      // overflows to infinity
           "seed=-5",                   // negative seed
           "seed=0x5eed",               // seeds are decimal
       }) {
    try {
      reg().configure(bad);
      FAIL() << "expected rejection of spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig) << bad;
      EXPECT_EQ(tool_exit_code(e.kind()), 2) << bad;
    }
  }
  EXPECT_FALSE(reg().enabled());
}

TEST_F(FaultRegistry, EmptySpecAndWhitespaceTolerated) {
  EXPECT_NO_THROW(reg().configure(""));
  EXPECT_NO_THROW(reg().configure(" io.fastq.open=once , seed=9 "));
  EXPECT_TRUE(reg().enabled());
  EXPECT_EQ(reg().seed(), 9u);
}

TEST_F(FaultRegistry, UnarmedSitesStillCountHitsWhenEnabled) {
  reg().configure("io.fastq.open=n100");
  EXPECT_FALSE(fault::should_fire(fault::sites::kIndexMmap));
  EXPECT_EQ(reg().stats(fault::sites::kIndexMmap).hits, 1u);
  EXPECT_EQ(reg().stats(fault::sites::kIndexMmap).fires, 0u);
}

TEST_F(FaultRegistry, ResetClearsCountersAndTriggers) {
  reg().configure("io.fastq.open=always");
  (void)fault::should_fire(fault::sites::kFastqOpen);
  reg().reset();
  EXPECT_FALSE(reg().enabled());
  EXPECT_EQ(reg().stats(fault::sites::kFastqOpen).hits, 0u);
  EXPECT_TRUE(reg().all_stats().empty());
}

TEST_F(FaultRegistry, MaybeFailThrowsTypedSitedError) {
  reg().configure("index.open=once");
  try {
    fault::maybe_fail(fault::sites::kIndexOpen, ErrorKind::kIndex,
                      "loading index");
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIndex);
    EXPECT_EQ(e.site(), fault::sites::kIndexOpen);
    EXPECT_FALSE(e.transient());
    EXPECT_NE(std::string(e.what()).find("loading index"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("index.open"), std::string::npos);
  }
  // Second hit: disarmed by 'once'.
  EXPECT_NO_THROW(fault::maybe_fail(fault::sites::kIndexOpen,
                                    ErrorKind::kIndex, "loading index"));
}

TEST_F(FaultRegistry, CatalogNamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names(fault::sites::kAll,
                                 fault::sites::kAll + fault::sites::kCount);
  for (const auto& n : names) EXPECT_FALSE(n.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
      << "duplicate site names in the catalog";
}

// ---------------------------------------------------------------------
// with_retry

TEST_F(FaultRegistry, WithRetrySucceedsAfterTransientFailures) {
  int calls = 0;
  std::uint64_t retries = 0;
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_ms = 0;
  const int result = fault::with_retry(
      policy,
      [&] {
        if (++calls < 3) {
          throw Error(ErrorKind::kIo, "test.site", "flaky", /*transient=*/true);
        }
        return 7;
      },
      &retries);
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST_F(FaultRegistry, WithRetryExhaustionPropagates) {
  int calls = 0;
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_ms = 0;
  try {
    fault::with_retry(policy, [&]() -> int {
      ++calls;
      throw Error(ErrorKind::kIo, "test.site", "still flaky",
                  /*transient=*/true);
    });
    FAIL() << "expected exhaustion";
  } catch (const Error& e) {
    EXPECT_TRUE(e.transient());
  }
  EXPECT_EQ(calls, 3);
}

TEST_F(FaultRegistry, WithRetryDoesNotRetryPermanentErrors) {
  int calls = 0;
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_ms = 0;
  EXPECT_THROW(fault::with_retry(policy,
                                 [&]() -> int {
                                   ++calls;
                                   throw Error(ErrorKind::kParse, "test.site",
                                               "permanent");
                                 }),
               Error);
  EXPECT_EQ(calls, 1) << "non-transient errors must not be retried";
}

TEST(ToolExitCodes, MapTaxonomyToDistinctCodes) {
  EXPECT_EQ(tool_exit_code(ErrorKind::kConfig), 2);
  EXPECT_EQ(tool_exit_code(ErrorKind::kIo), 3);
  EXPECT_EQ(tool_exit_code(ErrorKind::kParse), 3);
  EXPECT_EQ(tool_exit_code(ErrorKind::kIndex), 4);
  EXPECT_EQ(tool_exit_code(ErrorKind::kTask), 1);
  EXPECT_EQ(tool_exit_code(ErrorKind::kInternal), 1);
}

/// What one run_tool call did: its exit code, its stdout and stderr,
/// and whether the body ran.
struct ToolRun {
  int code = -1;
  std::string out;
  std::string err;
  bool body_ran = false;
};

/// Runs `body` through run_tool as "tool" with `args`, on a parser that
/// declares --in and, when `faults`, --fault-spec.
ToolRun run_tool_on(const std::vector<std::string>& args,
                    const std::function<void(const util::CliParser&)>& body,
                    bool faults = false) {
  util::CliParser cli("tool", "a test tool");
  cli.add_option("in", "input path", true, "");
  if (faults) cli.add_option("fault-spec", "fault-injection spec", true, "");
  std::vector<const char*> argv{"tool"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  ToolRun run;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  run.code = fault::run_tool(cli, static_cast<int>(argv.size()), argv.data(),
                             [&] {
                               run.body_ran = true;
                               body(cli);
                             });
  run.out = testing::internal::GetCapturedStdout();
  run.err = testing::internal::GetCapturedStderr();
  fault::Registry::instance().reset();
  return run;
}

TEST(ToolExitCodes, RunToolPrintsEveryThrownErrorAsOneLine) {
  for (const ErrorKind kind :
       {ErrorKind::kConfig, ErrorKind::kIo, ErrorKind::kParse,
        ErrorKind::kIndex, ErrorKind::kTask, ErrorKind::kInternal}) {
    const ToolRun run = run_tool_on({}, [&](const util::CliParser&) {
      throw Error(kind, "test.site", "it broke");
    });
    EXPECT_EQ(run.code, tool_exit_code(kind)) << error_kind_name(kind);
    EXPECT_EQ(run.err, "tool: it broke\n") << error_kind_name(kind);
    EXPECT_EQ(run.out, "");
  }
  ToolRun run = run_tool_on({}, [](const util::CliParser&) {
    throw std::invalid_argument("unknown method 'bogus'");
  });
  EXPECT_EQ(run.code, 2);
  EXPECT_EQ(run.err, "tool: unknown method 'bogus'\n");
  run = run_tool_on({}, [](const util::CliParser&) {
    throw std::runtime_error("invariant broke");
  });
  EXPECT_EQ(run.code, 1);
  EXPECT_EQ(run.err, "tool: internal error: invariant broke\n");
}

TEST(ToolExitCodes, RunToolReturnsZeroWhenTheBodyReturns) {
  const ToolRun run =
      run_tool_on({"--in", "reads.fastq"}, [](const util::CliParser& cli) {
        std::cout << cli.required("in") << "\n";
      });
  EXPECT_EQ(run.code, 0);
  EXPECT_TRUE(run.body_ran);
  EXPECT_EQ(run.out, "reads.fastq\n");
  EXPECT_EQ(run.err, "");
}

TEST(ToolExitCodes, RunToolRejectsBadFlagsBeforeTheBody) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--bogus"}, {"--in"}}) {
    const ToolRun run = run_tool_on(args, [](const util::CliParser&) {});
    EXPECT_EQ(run.code, 2) << args[0];
    EXPECT_FALSE(run.body_ran) << args[0];
    EXPECT_NE(run.err.find(args[0]), std::string::npos) << run.err;
    EXPECT_NE(run.err.find("Options:"), std::string::npos)
        << "a parse error prints the usage on stderr";
    EXPECT_EQ(run.out, "");
  }
}

TEST(ToolExitCodes, RunToolPrintsHelpOnStdout) {
  const ToolRun run =
      run_tool_on({"--help"}, [](const util::CliParser&) {}, true);
  EXPECT_EQ(run.code, 0);
  EXPECT_FALSE(run.body_ran);
  EXPECT_EQ(run.out.rfind("tool — a test tool\n", 0), 0u) << run.out;
  EXPECT_NE(run.out.find("--fault-spec"), std::string::npos);
  EXPECT_EQ(run.err, "");
}

TEST(ToolExitCodes, RunToolNamesAMissingRequiredFlag) {
  for (const auto& args :
       std::vector<std::vector<std::string>>{{}, {"--in", ""}}) {
    const ToolRun run = run_tool_on(
        args, [](const util::CliParser& cli) { cli.required("in"); });
    EXPECT_EQ(run.code, 2);
    EXPECT_EQ(run.err, "tool: --in is required\n");
  }
}

TEST(ToolExitCodes, RunToolArmsFaultsOnlyWhenTheParserDeclaresTheFlag) {
  const char* saved = std::getenv("NGS_FAULT_SPEC");
  const std::string saved_spec = saved != nullptr ? saved : "";
  const auto armed = [](bool faults, const std::vector<std::string>& args) {
    bool enabled = false;
    const ToolRun run = run_tool_on(
        args,
        [&](const util::CliParser&) {
          enabled = fault::Registry::instance().enabled();
        },
        faults);
    EXPECT_EQ(run.code, 0) << run.err;
    return enabled;
  };
  ::unsetenv("NGS_FAULT_SPEC");
  EXPECT_FALSE(armed(true, {}));
  EXPECT_TRUE(armed(true, {"--fault-spec", "io.fastq.open=always"}));
  ::setenv("NGS_FAULT_SPEC", "io.fastq.open=always", 1);
  EXPECT_TRUE(armed(true, {}));
  EXPECT_FALSE(armed(false, {}))
      << "a tool without --fault-spec ignores NGS_FAULT_SPEC";
  ::unsetenv("NGS_FAULT_SPEC");

  // A bad spec is a config error, raised before the body runs.
  const ToolRun run = run_tool_on({"--fault-spec", "no.such.site=always"},
                                  [](const util::CliParser&) {}, true);
  EXPECT_EQ(run.code, 2);
  EXPECT_FALSE(run.body_ran);
  EXPECT_EQ(run.err.rfind("tool: ", 0), 0u) << run.err;
  EXPECT_NE(run.err.find("no.such.site"), std::string::npos) << run.err;
  if (saved != nullptr) ::setenv("NGS_FAULT_SPEC", saved_spec.c_str(), 1);
}

}  // namespace
