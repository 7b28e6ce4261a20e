#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace ngs::util {

namespace {
thread_local bool t_on_worker_thread = false;
}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker_thread; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_blocked(begin, end,
                       [&fn](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) fn(i);
                       });
}

void ThreadPool::parallel_for_blocked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (on_worker_thread()) {
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t num_blocks =
      std::min<std::size_t>(n, std::max<std::size_t>(1, size() * 3));
  const std::size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(num_blocks);
  for (std::size_t lo = begin; lo < end; lo += block) {
    const std::size_t hi = std::min(end, lo + block);
    futures.push_back(submit([&fn, lo, hi] { fn(lo, hi); }));
  }
  // Drain every future before rethrowing: tasks capture `fn` (often a
  // temporary in the caller) by reference, so propagating the first
  // exception while later tasks are still queued would leave them
  // running against destroyed caller state (use-after-free caught by
  // the TSan smoke target). First exception in block order wins.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ngs::util
