// util::ShardedCache: the concurrent bounded memo cache behind the
// pass-2 tile-decision memo. Covers counter accuracy, growth by use up
// to the cap, deterministic bounded-capacity eviction, and a concurrent
// insert/lookup storm (run under TSan via the `sanitize` ctest label /
// the tsan CMake preset).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/sharded_cache.hpp"

namespace {

using ngs::util::ShardedCache;

/// The pure function being memoized in these tests: any lookup that
/// hits must return exactly this value for its key.
std::uint64_t value_of(std::uint64_t key) {
  return key * 0x9e3779b97f4a7c15ULL + 1;
}

TEST(ShardedCache, StoresAndLooksUp) {
  ShardedCache cache(1 << 20);
  std::uint64_t v = 0;
  EXPECT_FALSE(cache.lookup(42, v));
  cache.store(42, value_of(42));
  ASSERT_TRUE(cache.lookup(42, v));
  EXPECT_EQ(v, value_of(42));
  // Overwrite keeps a single entry.
  cache.store(42, 7);
  ASSERT_TRUE(cache.lookup(42, v));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCache, CountersAreExact) {
  ShardedCache cache(1 << 20);
  std::uint64_t v = 0;
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(cache.lookup(k, v));
  for (std::uint64_t k = 0; k < 100; ++k) cache.store(k, value_of(k));
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(cache.lookup(k, v));
  for (std::uint64_t k = 0; k < 50; ++k) EXPECT_TRUE(cache.lookup(k, v));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 100u);
  EXPECT_EQ(stats.hits, 150u);
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 100u);
}

TEST(ShardedCache, CapacityIsBoundedAndEvictionDeterministic) {
  // Tiny single-shard cache: capacity clamps to one probe window.
  auto fill = [](ShardedCache& cache, std::uint64_t n) {
    for (std::uint64_t k = 1; k <= n; ++k) cache.store(k, value_of(k));
  };
  ShardedCache a(1, 1), b(1, 1);
  EXPECT_EQ(a.num_shards(), 1u);
  const std::uint64_t n = 10 * a.capacity();
  fill(a, n);
  fill(b, n);
  EXPECT_LE(a.size(), a.capacity());
  EXPECT_GT(a.stats().evictions, 0u);
  // Same store sequence => identical resident set and counters: the
  // home-slot eviction rule is a pure function of the sequence.
  std::uint64_t va = 0, vb = 0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    EXPECT_EQ(a.lookup(k, va), b.lookup(k, vb)) << k;
    EXPECT_EQ(va, vb) << k;
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  // Every hit still returns the memoized function's value.
  for (std::uint64_t k = 1; k <= n; ++k) {
    if (a.lookup(k, va)) {
      EXPECT_EQ(va, value_of(k)) << k;
    }
  }
}

// The cache is sized by use: it starts at one probe window per shard,
// grows to hold every distinct key with no eviction while under its cap,
// never allocates past capacity_bytes(), and keeps its counters exact.
TEST(ShardedCache, GrowsWithUseUpToItsCap) {
  ShardedCache cache(32u << 20, 8);
  const std::size_t window_bytes = cache.allocated_bytes() / 8;
  EXPECT_LE(window_bytes, 256u) << "starts at one probe window per shard";
  const auto key_of = [](std::uint64_t i) { return i * 0x9e3779b9ULL + 3; };
  constexpr std::uint64_t kKeys = 200000;
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_FALSE(cache.lookup(key_of(i), v));
    cache.store(key_of(i), value_of(key_of(i)));
    if (i % 4096 == 0) {
      ASSERT_LE(cache.allocated_bytes(), cache.capacity_bytes()) << i;
    }
  }
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(cache.lookup(key_of(i), v)) << i;
    EXPECT_EQ(v, value_of(key_of(i))) << i;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits, kKeys);
  EXPECT_EQ(stats.insertions, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), kKeys);
  // At most half full after each doubling: 2-4 slots of 16 bytes a key.
  EXPECT_GE(cache.allocated_bytes(), 2 * 16 * kKeys);
  EXPECT_LE(cache.allocated_bytes(), 4 * 16 * kKeys);
  EXPECT_LT(cache.allocated_bytes(), cache.capacity_bytes());

  // Past the cap it stops growing and evicts: a store either inserts or
  // replaces the entry at its home slot.
  ShardedCache small(1 << 14, 2);
  const std::uint64_t n = 10 * small.capacity();
  for (std::uint64_t i = 0; i < n; ++i) small.store(key_of(i), i);
  EXPECT_EQ(small.allocated_bytes(), small.capacity_bytes());
  stats = small.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.insertions, small.capacity());
  EXPECT_GE(stats.insertions + stats.evictions, n);
  EXPECT_LE(small.size(), small.capacity());
}

// The key that marks free slots is never cached, and a store of it is
// dropped; every other key, 0 included, is.
TEST(ShardedCache, AllOnesKeyIsNeverResident) {
  ShardedCache cache(1 << 16);
  const std::uint64_t all_ones = ~std::uint64_t{0};
  std::uint64_t v = 0;
  cache.store(all_ones, 5);
  EXPECT_FALSE(cache.lookup(all_ones, v));
  cache.store(0, 9);
  ASSERT_TRUE(cache.lookup(0, v));
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCache, ConcurrentStormKeepsValuesConsistent) {
  // Memoizing workers race on an intentionally small cache (evictions
  // and overwrites happen constantly). Invariants: a hit always returns
  // value_of(key), and the aggregate counters account for every lookup.
  ShardedCache cache(1 << 14);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 20000;
  constexpr std::uint64_t kKeyRange = 4096;
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x243f6a8885a308d3ULL + static_cast<std::uint64_t>(t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = x % kKeyRange;
        std::uint64_t v = 0;
        if (cache.lookup(key, v)) {
          if (v != value_of(key)) ++bad;
        } else {
          cache.store(key, value_of(key));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(ShardedCache, ShardCountDefaultsAndRounding) {
  ShardedCache one(1 << 20, 1);
  EXPECT_EQ(one.num_shards(), 1u);
  ShardedCache rounded(1 << 20, 5);  // non-power-of-two rounds up
  EXPECT_EQ(rounded.num_shards(), 8u);
  ShardedCache defaulted(1 << 20);
  EXPECT_GE(defaulted.num_shards(), 1u);
  EXPECT_EQ(defaulted.num_shards() & (defaulted.num_shards() - 1), 0u);
  EXPECT_LE(defaulted.capacity_bytes(), (1u << 20) + 64 * defaulted.num_shards());
}

}  // namespace
