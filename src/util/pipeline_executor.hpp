#pragma once
// util::PipelineExecutor — a bounded-queue, order-restoring streaming
// executor: both passes of core::CorrectionPipeline run on it.
//
// Stage shape (one run() call):
//
//   reader thread ──► BoundedQueue ──► worker threads ──► reorder ──► writer
//   (producer fn)     (queue_depth)    (work fn × N)      buffer      (calling
//                                                         (by seq)     thread)
//
//   - A dedicated reader thread calls `producer` serially, stamping each
//     item with an ascending sequence number and pushing it into the
//     bounded input queue: the reader runs ahead of compute by at most
//     queue_depth items (double-buffering with backpressure).
//   - N worker threads claim items from the MPMC queue — dynamic load
//     balancing with no static partition, so a straggler item delays
//     only itself, never a barrier.
//   - Finished items enter a sequence-keyed reorder buffer; the calling
//     thread (the writer) consumes them in exactly production order, so
//     downstream output is byte-identical to a serial run at every
//     worker count and queue depth.
//
// Bounded memory: besides the input queue's own capacity, a total
// in-flight gate caps items produced but not yet consumed at
// queue_depth + 2*workers + 1. The gate is what bounds the *reorder*
// buffer — without it, fast workers racing past one straggler item
// would grow the out-of-order backlog without limit. Applying the cap
// at the producer (rather than blocking workers on a full reorder
// buffer) keeps the design deadlock-free: workers never block on the
// output side, so the item the writer needs next always makes progress.
//
// Failure model: the first exception (from any stage) wins. It aborts
// the input queue, the reorder buffer, and the in-flight gate, which
// unblocks every other stage (their pushes/pops/acquires fail and they
// exit their loops), run() joins all threads, and the exception is
// rethrown on the calling thread — a failing stage can never hang the
// pipeline.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/timer.hpp"

namespace ngs::util {

struct PipelineExecutorOptions {
  /// Worker threads claiming items between reader and writer (>= 1).
  std::size_t workers = 1;
  /// Capacity of the bounded reader → workers queue (>= 1): how far the
  /// reader may run ahead of compute.
  std::size_t queue_depth = 4;
};

/// Per-stage telemetry of one run: where the time went (stalls) and how
/// full the buffers got (occupancy high-water marks).
struct PipelineExecutorStats {
  /// Worker threads the run used (0 = the executor never ran).
  std::size_t workers = 0;
  /// Items that flowed through the pipeline.
  std::size_t items = 0;
  /// Input-queue occupancy high-water mark (<= queue_depth).
  std::size_t queue_peak = 0;
  /// Reorder-buffer high-water mark (< queue_depth + 2*workers + 1).
  std::size_t reorder_peak = 0;
  /// Reader thread: seconds inside `producer` vs blocked on backpressure
  /// (full input queue or the total in-flight cap).
  double reader_busy_seconds = 0.0;
  double reader_stall_seconds = 0.0;
  /// Workers: cumulative seconds blocked on an empty input queue.
  double worker_stall_seconds = 0.0;
  /// Writer: seconds inside `consumer` vs waiting for the next sequence
  /// number to finish.
  double writer_busy_seconds = 0.0;
  double writer_stall_seconds = 0.0;
  /// Wall time of the whole run.
  double elapsed_seconds = 0.0;

  /// Fraction of worker-thread wall time spent working (1 = never
  /// starved); 0 when nothing ran.
  double worker_utilization() const {
    const double denom = elapsed_seconds * static_cast<double>(workers);
    if (denom <= 0.0) return 0.0;
    const double util = 1.0 - worker_stall_seconds / denom;
    return util < 0.0 ? 0.0 : util;
  }
};

template <typename T>
class PipelineExecutor {
 public:
  /// Fills `item` with the next unit of work; returns false at end of
  /// input. Called serially from the dedicated reader thread.
  using Producer = std::function<bool(T& item)>;
  /// Processes one item in place. Called concurrently from `workers`
  /// threads; `worker` is a stable id in [0, workers).
  using Work = std::function<void(T& item, std::size_t worker)>;
  /// Consumes finished items in exact production order. Called serially
  /// from the thread that called run().
  using Consumer = std::function<void(T&& item)>;

  explicit PipelineExecutor(PipelineExecutorOptions options)
      : options_(options) {
    if (options_.workers == 0) options_.workers = 1;
    if (options_.queue_depth == 0) options_.queue_depth = 1;
  }

  PipelineExecutorStats run(const Producer& producer, const Work& work,
                            const Consumer& consumer) {
    Timer elapsed;
    PipelineExecutorStats stats;
    stats.workers = options_.workers;
    BoundedQueue<Sequenced> queue(options_.queue_depth);
    Reorder reorder;
    Gate gate(options_.queue_depth + 2 * options_.workers + 1);

    std::exception_ptr first_error;
    std::mutex error_mutex;
    const auto capture_error = [&] {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      queue.abort();
      reorder.abort();
      gate.abort();
    };

    double reader_busy = 0.0;
    double reader_gate_stall = 0.0;
    std::thread reader([&] {
      try {
        std::size_t seq = 0;
        for (;;) {
          if (!gate.acquire(reader_gate_stall)) break;
          T item{};
          Timer busy;
          const bool more = producer(item);
          reader_busy += busy.seconds();
          if (!more) break;
          if (!queue.push(Sequenced{seq, std::move(item)})) break;
          reorder.note_produced(++seq);
        }
        queue.close();
        reorder.close();
      } catch (...) {
        capture_error();
      }
    });

    std::vector<std::thread> workers;
    workers.reserve(options_.workers);
    for (std::size_t w = 0; w < options_.workers; ++w) {
      workers.emplace_back([&, w] {
        try {
          Sequenced item;
          while (queue.pop(item)) {
            work(item.value, w);
            if (!reorder.put(item.seq, std::move(item.value))) break;
          }
        } catch (...) {
          capture_error();
        }
      });
    }

    // The calling thread is the writer: drain the reorder buffer in
    // sequence order.
    try {
      T item{};
      while (reorder.next(item, stats.writer_stall_seconds)) {
        Timer busy;
        consumer(std::move(item));
        stats.writer_busy_seconds += busy.seconds();
        ++stats.items;
        gate.release();
      }
    } catch (...) {
      capture_error();
    }

    reader.join();
    for (auto& w : workers) w.join();

    stats.queue_peak = queue.peak_size();
    stats.reorder_peak = reorder.peak_size();
    stats.reader_busy_seconds = reader_busy;
    stats.reader_stall_seconds = queue.push_wait_seconds() + reader_gate_stall;
    stats.worker_stall_seconds = queue.pop_wait_seconds();
    stats.elapsed_seconds = elapsed.seconds();
    if (first_error) std::rethrow_exception(first_error);
    return stats;
  }

 private:
  struct Sequenced {
    std::size_t seq = 0;
    T value{};
  };

  /// Total in-flight cap (produced minus consumed). Applied on the
  /// producer side only — see the bounded-memory note in the header
  /// comment for why that placement is what keeps the pipeline
  /// deadlock-free.
  class Gate {
   public:
    explicit Gate(std::size_t cap) : cap_(cap) {}

    /// Blocks until an in-flight slot is free; false after abort.
    bool acquire(double& stall_seconds) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (in_flight_ >= cap_ && !aborted_) {
        Timer wait;
        freed_.wait(lock, [this] { return in_flight_ < cap_ || aborted_; });
        stall_seconds += wait.seconds();
      }
      if (aborted_) return false;
      ++in_flight_;
      return true;
    }

    void release() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (in_flight_ > 0) --in_flight_;
      }
      freed_.notify_one();
    }

    void abort() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        aborted_ = true;
      }
      freed_.notify_all();
    }

   private:
    const std::size_t cap_;
    std::mutex mutex_;
    std::condition_variable freed_;
    std::size_t in_flight_ = 0;
    bool aborted_ = false;
  };

  /// Sequence-keyed buffer restoring production order between the
  /// unordered workers and the serial writer.
  class Reorder {
   public:
    /// Called by a worker with a finished item. Returns false after
    /// abort (the item is dropped; the worker exits its loop).
    bool put(std::size_t seq, T&& value) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (aborted_) return false;
      done_.emplace(seq, std::move(value));
      if (done_.size() > peak_) peak_ = done_.size();
      ready_.notify_all();
      return true;
    }

    /// Writer side: blocks until item number `next_` is finished (true)
    /// or the stream is complete/aborted (false). Accumulates the wait
    /// into `stall_seconds`.
    bool next(T& out, double& stall_seconds) {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto ready = [this] {
        return aborted_ || done_.count(next_) != 0 ||
               (closed_ && next_ >= produced_);
      };
      if (!ready()) {
        Timer wait;
        ready_.wait(lock, ready);
        stall_seconds += wait.seconds();
      }
      if (aborted_) return false;
      auto it = done_.find(next_);
      if (it == done_.end()) return false;  // closed and fully drained
      out = std::move(it->second);
      done_.erase(it);
      ++next_;
      return true;
    }

    /// Reader side: records that items [0, produced) exist, so the
    /// writer knows when a closed stream is fully drained.
    void note_produced(std::size_t produced) {
      std::lock_guard<std::mutex> lock(mutex_);
      produced_ = produced;
    }

    void close() {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      ready_.notify_all();
    }

    void abort() {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
      done_.clear();
      ready_.notify_all();
    }

    std::size_t peak_size() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return peak_;
    }

   private:
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::map<std::size_t, T> done_;
    std::size_t next_ = 0;
    std::size_t produced_ = 0;
    std::size_t peak_ = 0;
    bool closed_ = false;
    bool aborted_ = false;
  };

  PipelineExecutorOptions options_;
};

}  // namespace ngs::util
