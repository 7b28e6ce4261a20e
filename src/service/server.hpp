#pragma once
// ngs::service::CorrectionServer — the long-lived serving core behind
// `ngs-correctd`. One process maps every configured spectrum index
// once, builds correctors once per (method, config, epoch), and serves
// streaming correction to any number of concurrent local clients:
//
//   acceptor thread ── accept() ──> per-connection reader thread
//                                        │  decode REQ, admission check
//                                        ▼
//                              shared BoundedQueue<Task>   (global bound)
//                                        │
//                              worker pool (N threads, pooled scratch)
//                                        │  corrected batch
//                                        ▼
//                     per-connection ordered sender + writer thread
//
// Flow control has two independent layers:
//   - per-client window: a connection's reader stops reading the socket
//     while max_inflight_per_client batches are unanswered, so one
//     client cannot occupy the whole worker pool and a slow client
//     backpressures itself through the kernel socket buffer;
//   - global admission: REQ batches enter the shared queue with a
//     non-blocking try_push — when the queue is full the batch is shed
//     with a typed BUSY reply instead of queueing unboundedly, keeping
//     tail latency bounded under overload.
//
// Replies (RESP / BUSY / per-request ERROR) are delivered strictly in
// request order per connection: every frame that needs a reply takes an
// arrival ticket, workers finish in any order, and the connection's
// writer thread drains tickets in sequence. A worker fault therefore
// costs exactly one ERROR reply — the connection, and every other
// in-flight batch on it, keeps going.
//
// Index hot reload (SIGHUP or the RELOAD verb) goes through the
// refcounted epoch scheme of IndexRegistry: new requests resolve
// against the freshly verified epoch, in-flight batches finish on the
// epoch they started with, and a corrupt replacement rejects the whole
// reload and keeps the old epoch serving.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/framing.hpp"
#include "service/index_registry.hpp"
#include "service/protocol.hpp"
#include "util/bounded_queue.hpp"

namespace ngs::service {

struct ServiceOptions {
  /// AF_UNIX stream socket path. Any stale file at the path is replaced.
  std::string socket_path;
  /// Correction worker threads shared by all connections.
  std::size_t workers = 2;
  /// Global admission bound: REQ batches queued across all connections.
  /// A full queue sheds with BUSY.
  std::size_t queue_capacity = 32;
  /// Unanswered batches one connection may have in flight.
  std::size_t max_inflight_per_client = 4;
  /// Largest read count a REQ may carry (bigger gets a typed error).
  std::size_t max_batch_reads = 65536;
  /// Frame payload cap negotiated with clients.
  std::uint64_t max_frame_bytes = 64ull << 20;
};

/// Counters snapshot (the STATS verb payload is rendered from this).
struct ServerStats {
  std::uint64_t epoch_id = 0;
  std::uint64_t reloads = 0;
  std::uint64_t indexes = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t accept_failures = 0;
  std::uint64_t batches_corrected = 0;
  std::uint64_t batches_failed = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t reads_corrected = 0;
  std::uint64_t reads_changed = 0;
  std::uint64_t bases_changed = 0;
  std::uint64_t workers = 0;
  std::uint64_t queue_capacity = 0;
};

class CorrectionServer {
 public:
  CorrectionServer(ServiceOptions options, IndexRegistryConfig registry);
  ~CorrectionServer();

  CorrectionServer(const CorrectionServer&) = delete;
  CorrectionServer& operator=(const CorrectionServer&) = delete;

  /// Loads + verifies the initial epoch, binds the socket, and spawns
  /// the acceptor and worker threads. Throws (and leaves nothing
  /// running) if any index fails verification or the socket cannot be
  /// bound.
  void start();

  /// Stops accepting, drains every connection, joins all threads, and
  /// removes the socket file. Idempotent; called by the destructor.
  void stop();

  /// Verifies and atomically publishes a new epoch (SIGHUP / RELOAD).
  /// Throws on failure — the old epoch keeps serving.
  std::uint64_t reload() { return registry_.reload(); }

  ServerStats stats() const;

  /// "key=value\n" rendering of stats() (the STATS_OK payload).
  std::string stats_text() const;

  const ServiceOptions& options() const noexcept { return options_; }
  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

 private:
  struct Connection;
  struct Task {
    std::shared_ptr<Connection> conn;
    std::uint64_t ticket = 0;
    std::uint64_t seq = 0;
    std::vector<seq::Read> reads;
    std::shared_ptr<const core::Corrector> corrector;
    std::shared_ptr<const Epoch> epoch;  // pins the mapping for the batch
  };

  void acceptor_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  void worker_loop();
  /// Handles one decoded frame on a connection's reader thread.
  /// Returns false when the connection should wind down.
  bool handle_frame(const std::shared_ptr<Connection>& conn, Frame&& frame);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      std::uint64_t ticket, Frame&& frame);
  /// Queues an ERROR reply at `ticket`. One naming a REQ's `seq` takes
  /// that REQ's window slot and the connection survives; a
  /// connection-level one (ErrorReply::kConnectionSeq) precedes the
  /// close and counts in protocol_errors when it is a kParse error.
  void reply_error(Connection& conn, std::uint64_t ticket, std::uint64_t seq,
                   ngs::ErrorKind kind, const std::string& message);
  void reap_finished_connections();

  ServiceOptions options_;
  IndexRegistry registry_;
  std::unique_ptr<util::BoundedQueue<Task>> queue_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
  std::atomic<std::uint64_t> batches_corrected_{0};
  std::atomic<std::uint64_t> batches_failed_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> reads_corrected_{0};
  std::atomic<std::uint64_t> reads_changed_{0};
  std::atomic<std::uint64_t> bases_changed_{0};
};

}  // namespace ngs::service
