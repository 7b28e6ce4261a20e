// util::BoundedQueue + util::PipelineExecutor: the bounded-queue
// backpressure primitive and the order-restoring streaming executor the
// correction pipeline's overlapped passes run on. The *Storm tests are
// the TSan workload (ctest label `sanitize`, tsan preset): many
// producers and consumers hammering one queue, shutdown while full, and
// exception teardown from every stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/pipeline_executor.hpp"

using namespace ngs;

TEST(BoundedQueue, FifoWithinCapacity) {
  util::BoundedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.push(i));
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.peak_size(), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, CloseDrainsThenEndsStream) {
  util::BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));  // sealed to producers
  int v = 0;
  EXPECT_TRUE(queue.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(queue.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(queue.pop(v));  // drained
}

TEST(BoundedQueue, AbortDropsItemsAndUnblocksEveryone) {
  util::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(7));
  // A producer blocked on the full queue must be released by abort()
  // with a false return, never left hanging. (We can't observe "is
  // blocked" from outside — the wait-time counter only accumulates
  // after the wait ends — so give the thread a moment to block; if
  // abort() wins the race anyway, push still fails immediately and the
  // assertions below hold either way.)
  std::atomic<bool> pushed{false};
  std::atomic<bool> push_result{true};
  std::thread blocked([&] {
    push_result = queue.push(8);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.abort();
  blocked.join();
  EXPECT_TRUE(pushed);
  EXPECT_FALSE(push_result);
  int v = 0;
  EXPECT_FALSE(queue.pop(v));  // items were dropped
  EXPECT_TRUE(queue.aborted());
}

// Producer/consumer storm: every pushed value is popped exactly once,
// across more threads than capacity slots (constant contention).
TEST(BoundedQueue, StormDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  util::BoundedQueue<int> queue(3);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::vector<int>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &seen, c] {
      int v = 0;
      while (queue.pop(v)) seen[c].push_back(v);
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  std::vector<int> all;
  for (const auto& s : seen) all.insert(all.end(), s.begin(), s.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) EXPECT_EQ(all[i], i);
  EXPECT_LE(queue.peak_size(), queue.capacity());
}

// Shutdown-while-full: consumers vanish mid-stream (abort), producers
// blocked on the full queue all come back with false.
TEST(BoundedQueue, StormShutdownWhileFullReleasesProducers) {
  util::BoundedQueue<int> queue(2);
  constexpr int kProducers = 6;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (!queue.push(i)) {
          ++rejected;
          return;
        }
      }
    });
  }
  // Drain a few items so producers are genuinely cycling, then abort.
  int v = 0;
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(queue.pop(v));
  queue.abort();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);
}

namespace {

util::PipelineExecutorStats run_squares(std::size_t workers,
                                        std::size_t depth, std::size_t count,
                                        std::vector<long>& out) {
  util::PipelineExecutorOptions options;
  options.workers = workers;
  options.queue_depth = depth;
  util::PipelineExecutor<long> executor(options);
  std::size_t produced = 0;
  return executor.run(
      [&](long& item) {
        if (produced >= count) return false;
        item = static_cast<long>(produced++);
        return true;
      },
      [](long& item, std::size_t) { item = item * item; },
      [&](long&& item) { out.push_back(item); });
}

}  // namespace

// The ordering guarantee: the writer sees items in exact production
// order at every worker count x queue depth.
TEST(PipelineExecutor, RestoresProductionOrder) {
  for (const std::size_t workers : {1ul, 2ul, 4ul, 8ul}) {
    for (const std::size_t depth : {1ul, 2ul, 8ul}) {
      std::vector<long> out;
      const auto stats = run_squares(workers, depth, 500, out);
      ASSERT_EQ(out.size(), 500u) << workers << "x" << depth;
      for (long i = 0; i < 500; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i)
            << workers << "x" << depth;
      }
      EXPECT_EQ(stats.items, 500u);
      EXPECT_LE(stats.queue_peak, depth);
      // The in-flight gate bounds the reorder backlog.
      EXPECT_LE(stats.reorder_peak, depth + 2 * workers + 1);
    }
  }
}

TEST(PipelineExecutor, EmptyInputRunsNothing) {
  std::vector<long> out;
  const auto stats = run_squares(4, 4, 0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.items, 0u);
}

// Exception propagation: whichever stage throws, run() rethrows that
// error on the calling thread and never hangs.
TEST(PipelineExecutor, ProducerExceptionPropagates) {
  util::PipelineExecutor<int> executor({2, 2});
  int produced = 0;
  EXPECT_THROW(
      executor.run(
          [&](int& item) {
            if (produced == 5) throw std::runtime_error("reader died");
            item = produced++;
            return true;
          },
          [](int&, std::size_t) {}, [](int&&) {}),
      std::runtime_error);
}

TEST(PipelineExecutor, WorkerExceptionPropagates) {
  util::PipelineExecutor<int> executor({4, 2});
  int produced = 0;
  try {
    executor.run(
        [&](int& item) {
          if (produced == 100) return false;
          item = produced++;
          return true;
        },
        [](int& item, std::size_t) {
          if (item == 17) throw std::runtime_error("worker died on 17");
        },
        [](int&&) {});
    FAIL() << "expected the worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker died on 17");
  }
}

TEST(PipelineExecutor, ConsumerExceptionPropagates) {
  util::PipelineExecutor<int> executor({2, 1});
  int produced = 0;
  int consumed = 0;
  EXPECT_THROW(
      executor.run(
          [&](int& item) {
            item = produced++;
            return true;  // unbounded stream: teardown must stop it
          },
          [](int&, std::size_t) {},
          [&](int&&) {
            if (++consumed == 9) throw std::runtime_error("writer died");
          }),
      std::runtime_error);
}

// Storm shape for TSan: wide fan-out, tiny queue, non-trivial payloads
// (heap-owning strings) so lifetime races surface.
TEST(PipelineExecutor, StormStringsRoundTrip) {
  util::PipelineExecutorOptions options;
  options.workers = 8;
  options.queue_depth = 2;
  util::PipelineExecutor<std::string> executor(options);
  constexpr int kItems = 5000;
  int produced = 0;
  std::vector<std::string> out;
  out.reserve(kItems);
  const auto stats = executor.run(
      [&](std::string& item) {
        if (produced >= kItems) return false;
        item = "item-" + std::to_string(produced++);
        return true;
      },
      [](std::string& item, std::size_t worker) {
        item += "/w";  // touch the payload on the worker
        (void)worker;
      },
      [&](std::string&& item) { out.push_back(std::move(item)); });
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              "item-" + std::to_string(i) + "/w");
  }
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  EXPECT_EQ(stats.workers, options.workers);
  EXPECT_GE(stats.worker_utilization(), 0.0);
  EXPECT_LE(stats.worker_utilization(), 1.0);
}
