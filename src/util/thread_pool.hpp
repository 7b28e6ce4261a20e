#pragma once
// A small fixed-size thread pool with a blocking work queue plus
// parallel_for / parallel_for_blocked helpers.
//
// The MapReduce engine (src/mapreduce) and the spectrum builders use this
// for explicit task parallelism in the OpenMP fork/join style: the caller
// submits a batch of tasks and waits on all of them. All parallelism in
// this library is explicit, per the HPC guides — no hidden global state.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ngs::util {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  template <typename F>
  std::future<void> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<F>(fn));
    std::future<void> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [begin, end), partitioned into ~3x#workers blocks.
  /// Blocks until all iterations complete. Exceptions from tasks are
  /// rethrown (the first one encountered).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Run fn(block_begin, block_end) over contiguous blocks. Useful when
  /// the body wants per-block scratch state.
  ///
  /// Safe to call from inside a pool task: nested invocations run the
  /// range inline on the calling worker instead of re-submitting (a
  /// nested submit-and-wait could deadlock once every worker blocks on
  /// futures only other workers could run).
  void parallel_for_blocked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is a worker of any ThreadPool.
  static bool on_worker_thread() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide default pool (lazily constructed).
ThreadPool& default_pool();

}  // namespace ngs::util
