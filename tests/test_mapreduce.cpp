#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>

#include "mapreduce/block_store.hpp"
#include "mapreduce/job.hpp"

namespace {

using namespace ngs;
using mapreduce::Emitter;
using mapreduce::Job;

using WordCountJob =
    Job<int, std::string, std::string, int, std::string, int>;

std::vector<std::pair<std::string, int>> word_count(
    const std::vector<std::pair<int, std::string>>& docs,
    const mapreduce::JobConfig& config = {},
    mapreduce::JobCounters* counters = nullptr) {
  return WordCountJob::run(
      docs,
      [](const int&, const std::string& text,
         Emitter<std::string, int>& out) {
        std::string word;
        for (const char c : text + " ") {
          if (c == ' ') {
            if (!word.empty()) out.emit(word, 1);
            word.clear();
          } else {
            word.push_back(c);
          }
        }
      },
      [](const std::string& word, std::span<const int> counts,
         Emitter<std::string, int>& out) {
        out.emit(word, static_cast<int>(
                           std::accumulate(counts.begin(), counts.end(), 0)));
      },
      config, counters);
}

TEST(MapReduce, WordCount) {
  const std::vector<std::pair<int, std::string>> docs = {
      {0, "the quick brown fox"},
      {1, "the lazy dog"},
      {2, "the quick dog"},
  };
  auto result = word_count(docs);
  std::map<std::string, int> counts(result.begin(), result.end());
  EXPECT_EQ(counts["the"], 3);
  EXPECT_EQ(counts["quick"], 2);
  EXPECT_EQ(counts["dog"], 2);
  EXPECT_EQ(counts["fox"], 1);
  EXPECT_EQ(counts.size(), 6u);
}

TEST(MapReduce, CountersAreAccurate) {
  const std::vector<std::pair<int, std::string>> docs = {
      {0, "a b"}, {1, "a"}, {2, "c c c"}};
  mapreduce::JobCounters counters;
  word_count(docs, {}, &counters);
  EXPECT_EQ(counters.map_input_records, 3u);
  EXPECT_EQ(counters.map_output_records, 6u);  // a,b,a,c,c,c
  EXPECT_EQ(counters.reduce_input_groups, 3u);  // a, b, c
  EXPECT_EQ(counters.reduce_output_records, 3u);
  EXPECT_GE(counters.map_task_attempts, 1u);
}

/// The document "<letter><a> <letter><b>", built by appends: GCC 12
/// warns (-Wrestrict) on the inlined chain of operator+ it replaces.
std::string two_words(char letter, int a, int b) {
  std::string doc(1, letter);
  doc += std::to_string(a);
  doc += ' ';
  doc += letter;
  doc += std::to_string(b);
  return doc;
}

TEST(MapReduce, OutputIsDeterministic) {
  std::vector<std::pair<int, std::string>> docs;
  for (int i = 0; i < 200; ++i) {
    docs.emplace_back(i, two_words('w', i % 17, i % 5));
  }
  const auto a = word_count(docs);
  const auto b = word_count(docs);
  EXPECT_EQ(a, b);
}

TEST(MapReduce, EmptyInput) {
  const auto result = word_count({});
  EXPECT_TRUE(result.empty());
}

TEST(MapReduce, KeysSortedWithinReducer) {
  mapreduce::JobConfig config;
  config.num_reducers = 1;  // single partition -> globally sorted output
  const auto result = word_count({{0, "zeta alpha mid"}}, config);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].first, "alpha");
  EXPECT_EQ(result[2].first, "zeta");
}

TEST(MapReduce, InjectedFaultsAreRetried) {
  std::vector<std::pair<int, std::string>> docs;
  for (int i = 0; i < 64; ++i) docs.emplace_back(i, "x y");
  mapreduce::JobConfig config;
  config.task_failure_rate = 0.4;
  config.max_task_attempts = 50;
  mapreduce::JobCounters counters;
  const auto result = word_count(docs, config, &counters);
  std::map<std::string, int> counts(result.begin(), result.end());
  EXPECT_EQ(counts["x"], 64);  // retries must not duplicate records
  EXPECT_EQ(counts["y"], 64);
  EXPECT_GT(counters.map_task_failures, 0u);
  EXPECT_EQ(counters.map_task_attempts,
            counters.map_task_failures +
                (counters.map_task_attempts - counters.map_task_failures));
}

TEST(MapReduce, ExhaustedRetriesThrow) {
  std::vector<std::pair<int, std::string>> docs{{0, "x"}};
  mapreduce::JobConfig config;
  config.task_failure_rate = 1.0;  // every attempt fails
  config.max_task_attempts = 3;
  EXPECT_THROW(word_count(docs, config), mapreduce::TaskFailedError);
}

TEST(MapReduce, ExhaustionErrorIsTypedAndNamesTheTask) {
  std::vector<std::pair<int, std::string>> docs{{0, "x"}, {1, "y"}};
  mapreduce::JobConfig config;
  config.task_failure_rate = 1.0;
  config.max_task_attempts = 2;
  config.num_map_tasks = 1;
  try {
    word_count(docs, config);
    FAIL() << "expected TaskFailedError";
  } catch (const mapreduce::TaskFailedError& e) {
    EXPECT_EQ(e.kind(), ngs::ErrorKind::kTask);
    const std::string what = e.what();
    EXPECT_NE(what.find("map task 0"), std::string::npos) << what;
    EXPECT_NE(what.find("2 attempts"), std::string::npos) << what;
    EXPECT_NE(what.find("retry budget exhausted"), std::string::npos) << what;
  }
}

TEST(MapReduce, OutputAfterInjectedFaultsMatchesFaultFreeRun) {
  std::vector<std::pair<int, std::string>> docs;
  for (int i = 0; i < 128; ++i) {
    docs.emplace_back(i, two_words('k', i % 13, i % 7));
  }
  mapreduce::JobConfig clean_config;
  clean_config.num_map_tasks = 16;
  const auto clean = word_count(docs, clean_config);

  mapreduce::JobConfig faulty_config = clean_config;
  faulty_config.task_failure_rate = 0.5;
  faulty_config.max_task_attempts = 100;
  mapreduce::JobCounters counters;
  const auto faulty = word_count(docs, faulty_config, &counters);
  EXPECT_GT(counters.map_task_failures, 0u) << "faults never fired";
  EXPECT_EQ(faulty, clean)
      << "retried tasks must reproduce the fault-free output exactly";
}

TEST(MapReduce, InjectedFaultsAreDeterministicAcrossPoolSizes) {
  std::vector<std::pair<int, std::string>> docs;
  for (int i = 0; i < 96; ++i) {
    docs.emplace_back(i, 'a' + std::to_string(i % 11));
  }
  // Fix the task count so the splits (and the per-task fault RNG
  // streams) are identical no matter how many threads execute them.
  const auto run_on = [&](std::size_t pool_size) {
    util::ThreadPool pool(pool_size);
    mapreduce::JobConfig config;
    config.num_map_tasks = 12;
    config.task_failure_rate = 0.4;
    config.max_task_attempts = 100;
    config.failure_seed = 99;
    config.pool = &pool;
    mapreduce::JobCounters counters;
    const auto result = word_count(docs, config, &counters);
    return std::make_pair(result, counters.map_task_failures);
  };
  const auto one = run_on(1);
  const auto four = run_on(4);
  const auto eight = run_on(8);
  EXPECT_EQ(one.first, four.first);
  EXPECT_EQ(one.first, eight.first);
  EXPECT_GT(one.second, 0u) << "faults never fired";
  EXPECT_EQ(one.second, four.second)
      << "fault schedule must depend on (seed, task), not thread count";
  EXPECT_EQ(one.second, eight.second);
}

TEST(BlockStore, WriteReadRoundTrip) {
  mapreduce::BlockStore store(4, 2, 16);
  const std::string data(100, 'x');
  store.write("file", data);
  EXPECT_TRUE(store.exists("file"));
  EXPECT_EQ(store.read("file"), data);
  EXPECT_EQ(store.total_blocks(), 7u);  // ceil(100/16)
}

TEST(BlockStore, SurvivesSingleNodeFailureWithReplication) {
  mapreduce::BlockStore store(4, 2, 8);
  const std::string data = "abcdefghijklmnopqrstuvwxyz";
  store.write("f", data);
  store.fail_node(0);
  EXPECT_EQ(store.read("f"), data);  // replicas on other nodes survive
  EXPECT_EQ(store.live_nodes(), 3u);
}

TEST(BlockStore, RereplicationRestoresRedundancy) {
  mapreduce::BlockStore store(5, 3, 8);
  store.write("f", std::string(64, 'q'));
  store.fail_node(1);
  const std::size_t created = store.rereplicate();
  EXPECT_GT(created, 0u);
  // Now a second failure must still be survivable.
  store.fail_node(2);
  EXPECT_EQ(store.read("f"), std::string(64, 'q'));
}

TEST(BlockStore, LosesDataWhenAllReplicasDie) {
  mapreduce::BlockStore store(2, 1, 8);
  store.write("f", "hello world, this spans blocks");
  store.fail_node(0);
  store.fail_node(1);
  EXPECT_THROW(store.read("f"), std::runtime_error);
}

TEST(BlockStore, OverwriteAndRemove) {
  mapreduce::BlockStore store(3, 2, 8);
  store.write("f", "first");
  store.write("f", "second version");
  EXPECT_EQ(store.read("f"), "second version");
  store.remove("f");
  EXPECT_FALSE(store.exists("f"));
  EXPECT_THROW(store.read("f"), std::runtime_error);
}

TEST(BlockStore, RejectsZeroConfig) {
  EXPECT_THROW(mapreduce::BlockStore(0, 1, 8), std::invalid_argument);
  EXPECT_THROW(mapreduce::BlockStore(2, 0, 8), std::invalid_argument);
}

}  // namespace
