#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "util/flat_counter.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using ngs::util::Histogram;
using ngs::util::Rng;

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  ngs::util::RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(m.mean(), 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(m.variance()), 2.0, 0.05);
}

TEST(Rng, GammaMoments) {
  Rng rng(13);
  ngs::util::RunningMoments m;
  const double shape = 3.0, scale = 2.0;
  for (int i = 0; i < 200000; ++i) m.add(rng.gamma(shape, scale));
  EXPECT_NEAR(m.mean(), shape * scale, 0.1);
  EXPECT_NEAR(m.variance(), shape * scale * scale, 0.4);
}

TEST(Histogram, QuantileAndTotal) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.quantile(0.5), 50);
  EXPECT_EQ(h.quantile(1.0), 100);
}

TEST(Histogram, WeightedCounts) {
  Histogram h;
  h.add(1, 90);
  h.add(10, 10);
  EXPECT_EQ(h.quantile(0.5), 1);
  EXPECT_EQ(h.quantile(0.95), 10);
}

TEST(Stats, DigammaMatchesKnownValues) {
  // psi(1) = -gamma_E, psi(2) = 1 - gamma_E, psi(0.5) = -gamma_E - 2 ln 2.
  constexpr double kEuler = 0.5772156649015329;
  EXPECT_NEAR(ngs::util::digamma(1.0), -kEuler, 1e-9);
  EXPECT_NEAR(ngs::util::digamma(2.0), 1.0 - kEuler, 1e-9);
  EXPECT_NEAR(ngs::util::digamma(0.5), -kEuler - 2.0 * std::log(2.0), 1e-9);
}

TEST(Stats, DigammaIsDerivativeOfLogGamma) {
  for (double x : {0.3, 1.7, 4.2, 25.0}) {
    const double h = 1e-6;
    const double numeric =
        (ngs::util::log_gamma(x + h) - ngs::util::log_gamma(x - h)) / (2 * h);
    EXPECT_NEAR(ngs::util::digamma(x), numeric, 1e-5) << "x=" << x;
  }
}

TEST(Stats, LogSumExp) {
  EXPECT_NEAR(ngs::util::log_sum_exp({std::log(1.0), std::log(3.0)}),
              std::log(4.0), 1e-12);
  EXPECT_NEAR(ngs::util::log_sum_exp({-1000.0, -1000.0}),
              -1000.0 + std::log(2.0), 1e-9);
}

TEST(Table, RendersAlignedRows) {
  ngs::util::Table t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22,222"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22,222"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(ngs::util::Table::num(0), "0");
  EXPECT_EQ(ngs::util::Table::num(999), "999");
  EXPECT_EQ(ngs::util::Table::num(1000), "1,000");
  EXPECT_EQ(ngs::util::Table::num(1234567), "1,234,567");
  EXPECT_EQ(ngs::util::Table::percent(0.123456, 2), "12.35%");
}

TEST(ThreadPool, ParallelForCoversRange) {
  ngs::util::ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ngs::util::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ngs::util::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, BlockedCoversRangeInContiguousBlocks) {
  ngs::util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  pool.parallel_for_blocked(0, hits.size(),
                            [&](std::size_t lo, std::size_t hi) {
                              ASSERT_LT(lo, hi);
                              for (std::size_t i = lo; i < hi; ++i)
                                hits[i].fetch_add(1);
                            });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BlockedPropagatesExceptions) {
  ngs::util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_blocked(0, 100,
                                [](std::size_t lo, std::size_t) {
                                  if (lo > 0) throw std::runtime_error("boom");
                                }),
      std::runtime_error);
}

TEST(ThreadPool, BlockedEmptyRangeIsNoop) {
  ngs::util::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_blocked(9, 9, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  pool.parallel_for_blocked(9, 3, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SubmitRunsFifoOnSingleWorker) {
  // With one worker the deque is drained front-to-back, so submission
  // order is execution order.
  ngs::util::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SubmitUnderContentionRunsEachTaskOnce) {
  // Several threads race to submit; every task must run exactly once and
  // every future must become ready.
  ngs::util::ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 50;
  std::vector<std::atomic<int>> counts(kSubmitters * kPerSubmitter);
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        auto f = pool.submit(
            [&counts, idx = s * kPerSubmitter + i] { counts[idx].fetch_add(1); });
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& f : futures) f.get();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(StageTimes, AccumulatesInOrder) {
  ngs::util::StageTimes times;
  times.add("sketch", 1.0);
  times.add("validate", 2.0);
  times.add("sketch", 0.5);
  EXPECT_DOUBLE_EQ(times.get("sketch"), 1.5);
  EXPECT_DOUBLE_EQ(times.total(), 3.5);
  ASSERT_EQ(times.entries().size(), 2u);
  EXPECT_EQ(times.entries()[0].first, "sketch");
}

TEST(Memory, ReportsPositiveRss) {
  EXPECT_GT(ngs::util::peak_rss_bytes(), 0u);
}

TEST(FlatCounter, CountsAndSentinel) {
  ngs::util::FlatCounter c;
  c.add(5);
  c.add(5, 3);
  c.add(~std::uint64_t{0});  // the empty-slot sentinel key
  EXPECT_EQ(c.count(5), 4u);
  EXPECT_EQ(c.count(6), 0u);
  EXPECT_EQ(c.count(~std::uint64_t{0}), 1u);
  EXPECT_EQ(c.distinct(), 2u);
}

TEST(FlatCounter, UpdatesToExistingKeysNeverRehash) {
  // expected_keys=8 -> 16 slots; 8 inserts sit exactly at the load-factor
  // boundary, where the old pre-check grew the table on the next add()
  // even when that add only bumped an existing key.
  ngs::util::FlatCounter c(8);
  ASSERT_EQ(c.capacity(), 16u);
  for (std::uint64_t key = 0; key < 8; ++key) c.add(key);
  ASSERT_EQ(c.capacity(), 16u);
  for (int i = 0; i < 100; ++i) c.add(3);
  EXPECT_EQ(c.capacity(), 16u) << "update to an existing key rehashed";
  EXPECT_EQ(c.count(3), 101u);
  // A genuinely new key at the boundary still grows.
  c.add(999);
  EXPECT_EQ(c.capacity(), 32u);
  for (std::uint64_t key = 0; key < 8; ++key) EXPECT_EQ(c.count(key), key == 3 ? 101u : 1u);
  EXPECT_EQ(c.count(999), 1u);
}

TEST(FlatCounter, ConstLookupOnColdKeys) {
  const ngs::util::FlatCounter c(4);
  EXPECT_EQ(c.count(123), 0u);
  EXPECT_EQ(c.distinct(), 0u);
}

TEST(FlatSet, MembershipMatchesStdSet) {
  // Keys drawn from a narrow range (so inserts repeat), from the whole
  // 64-bit range, and the two extremes: 0 and ~0, the empty-slot key.
  // Two expected_keys = 4 tables grow through many doublings.
  Rng rng(31);
  for (int round = 0; round < 2; ++round) {
    ngs::util::FlatSet set(4);
    std::set<std::uint64_t> want;
    const auto insert = [&](std::uint64_t key) {
      set.insert(key);
      want.insert(key);
    };
    if (round == 0) insert(0);
    insert(~std::uint64_t{0});
    for (int i = 0; i < 5000; ++i) {
      insert(i % 2 == 0 ? rng.below(4096) : rng());
    }
    EXPECT_EQ(set.size(), want.size());
    EXPECT_LE(set.size() * 2, set.capacity());
    for (const std::uint64_t key : want) ASSERT_TRUE(set.contains(key)) << key;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = i % 2 == 0 ? rng.below(8192) : rng();
      ASSERT_EQ(set.contains(key), want.count(key) == 1) << key;
    }
    EXPECT_EQ(set.contains(0), want.count(0) == 1);
    EXPECT_TRUE(set.contains(~std::uint64_t{0}));
  }
  // An empty table answers no for the empty-slot key as for any other.
  const ngs::util::FlatSet empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.contains(0));
  EXPECT_FALSE(empty.contains(~std::uint64_t{0}));
}

}  // namespace
