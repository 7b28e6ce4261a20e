#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <span>
#include <utility>

#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "service/framing.hpp"

namespace ngs::service {

namespace {

// Pending connections the kernel queues before accept.
constexpr int kListenBacklog = 64;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

/// Per-connection state. Lifetime: created by the acceptor, shared with
/// the reader/writer threads and every in-flight Task; the acceptor (or
/// stop()) reaps it once `finished` is set.
struct CorrectionServer::Connection {
  explicit Connection(int fd_in, std::uint64_t max_frame_bytes)
      : fd(fd_in), channel(fd_in, max_frame_bytes) {}

  ~Connection() { close_fd(fd); }

  int fd;
  FrameChannel channel;
  std::thread reader;
  std::thread writer;

  /// One queued reply frame awaiting its turn on the wire.
  struct Reply {
    FrameType type = FrameType::kError;
    std::vector<std::uint8_t> payload;
    /// True when this reply answers a REQ (counts against the
    /// per-client window; the writer releases the slot after sending).
    bool answers_request = false;
  };

  std::mutex mutex;
  std::condition_variable cv;
  /// Arrival-ticket -> reply. The writer sends strictly in ticket
  /// order, which is arrival order — workers may finish out of order
  /// but the client never observes reordering.
  std::map<std::uint64_t, Reply> pending;
  std::uint64_t next_ticket = 0;  // assigned by the reader at arrival
  std::uint64_t next_send = 0;    // next ticket the writer may send
  std::uint64_t next_seq = 0;     // REQ seq the client must send next
  std::size_t inflight = 0;       // REQs accepted but not yet replied
  bool closing = false;           // drain pending replies, then exit
  bool dead = false;              // socket broken: drop everything now
  std::atomic<bool> finished{false};  // threads joined; safe to reap

  // Negotiated session (reader thread only).
  bool hello_done = false;
  std::string method;
  core::CorrectorConfig config;
  std::shared_ptr<const Epoch> epoch;
  std::shared_ptr<const core::Corrector> corrector;

  /// The next arrival ticket (reader thread).
  std::uint64_t take_ticket() {
    std::lock_guard<std::mutex> lock(mutex);
    return next_ticket++;
  }

  /// Queues `reply` for the writer at `ticket`. Safe from any thread.
  void deposit(std::uint64_t ticket, FrameType type,
               std::vector<std::uint8_t> payload, bool answers_request) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.emplace(ticket,
                      Reply{type, std::move(payload), answers_request});
    }
    cv.notify_all();
  }
};

CorrectionServer::CorrectionServer(ServiceOptions options,
                                   IndexRegistryConfig registry)
    : options_(std::move(options)), registry_(std::move(registry)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_inflight_per_client == 0) {
    options_.max_inflight_per_client = 1;
  }
}

CorrectionServer::~CorrectionServer() { stop(); }

void CorrectionServer::start() {
  registry_.load_initial();
  queue_ = std::make_unique<util::BoundedQueue<Task>>(options_.queue_capacity);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw ngs::Error(ngs::ErrorKind::kConfig, "",
                     "socket path '" + options_.socket_path +
                         "' exceeds the AF_UNIX limit of " +
                         std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw ngs::Error(ngs::ErrorKind::kIo, fault::sites::kServiceAccept,
                     std::string("service: socket() failed: ") +
                         std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, kListenBacklog) < 0) {
    const int saved = errno;
    close_fd(listen_fd_);
    throw ngs::Error(ngs::ErrorKind::kIo, fault::sites::kServiceAccept,
                     "service: cannot listen on '" + options_.socket_path +
                         "': " + std::strerror(saved));
  }
  if (::pipe(stop_pipe_) < 0) {
    const int saved = errno;
    close_fd(listen_fd_);
    throw ngs::Error(ngs::ErrorKind::kIo, fault::sites::kServiceAccept,
                     std::string("service: pipe() failed: ") +
                         std::strerror(saved));
  }

  running_.store(true);
  stopping_.store(false);
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void CorrectionServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);

  // Wake the acceptor out of poll() and join it first: no new
  // connections from here on.
  const char byte = 1;
  (void)!::write(stop_pipe_[1], &byte, 1);
  if (acceptor_.joinable()) acceptor_.join();

  // Half-close every connection: SHUT_RD pops the reader out of its
  // blocking read with a clean EOF while the write side stays open so
  // in-flight replies still reach the client.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      ::shutdown(conn->fd, SHUT_RD);
      conn->cv.notify_all();
    }
  }
  // Connections drain (workers are still running and will finish the
  // queued batches); reap as they finish.
  for (;;) {
    reap_finished_connections();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connections_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  queue_->close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  close_fd(listen_fd_);
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
  ::unlink(options_.socket_path.c_str());
}

void CorrectionServer::acceptor_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ++accept_failures_;
      return;
    }
    if (fds[1].revents != 0 || stopping_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;

    int fd = -1;
    try {
      fault::maybe_fail(fault::sites::kServiceAccept, ngs::ErrorKind::kIo,
                        "service: accepting connection");
      fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw ngs::Error(ngs::ErrorKind::kIo, fault::sites::kServiceAccept,
                         std::string("service: accept() failed: ") +
                             std::strerror(errno));
      }
    } catch (const ngs::Error&) {
      // An accept failure (injected or real) costs one client its
      // connection attempt; the daemon keeps serving.
      ++accept_failures_;
      continue;
    }

    auto conn = std::make_shared<Connection>(fd, options_.max_frame_bytes);
    ++connections_accepted_;
    ++connections_active_;
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
    }
    reap_finished_connections();
  }
}

void CorrectionServer::reap_finished_connections() {
  std::vector<std::shared_ptr<Connection>> done;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->finished.load()) {
        done.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : done) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void CorrectionServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Frame frame;
    try {
      if (!conn->channel.read_frame(frame)) break;  // clean EOF
    } catch (const ngs::Error& e) {
      // Tell the peer why before closing — unless the stream itself
      // broke, in which case nobody is listening.
      if (e.kind() != ngs::ErrorKind::kIo) {
        reply_error(*conn, conn->take_ticket(), ErrorReply::kConnectionSeq,
                    e.kind(), e.what());
      }
      break;
    }
    if (!handle_frame(conn, std::move(frame))) break;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closing = true;
  }
  conn->cv.notify_all();
  if (conn->writer.joinable()) conn->writer.join();
  // Full close on the wire now (the fd itself lives until reap): a
  // client blocked on a reply it will never get sees EOF immediately
  // instead of waiting for the acceptor to reap this connection.
  ::shutdown(conn->fd, SHUT_RDWR);
  --connections_active_;
  conn->finished.store(true);
}

void CorrectionServer::writer_loop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Connection::Reply reply;
    bool answers_request = false;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock, [&] {
        return conn->dead ||
               conn->pending.find(conn->next_send) != conn->pending.end() ||
               (conn->closing && conn->inflight == 0 && conn->pending.empty());
      });
      if (conn->dead) return;
      auto it = conn->pending.find(conn->next_send);
      if (it == conn->pending.end()) return;  // closing && drained
      reply = std::move(it->second);
      conn->pending.erase(it);
      ++conn->next_send;
      answers_request = reply.answers_request;
    }
    try {
      conn->channel.write_frame(reply.type, reply.payload);
    } catch (const ngs::Error&) {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->dead = true;
      // The reader may be blocked in read(); break the socket fully so
      // it wakes and winds the connection down.
      ::shutdown(conn->fd, SHUT_RDWR);
      conn->cv.notify_all();
      return;
    }
    if (answers_request) {
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        --conn->inflight;
      }
      conn->cv.notify_all();  // reopen the per-client window
    }
  }
}

bool CorrectionServer::handle_frame(const std::shared_ptr<Connection>& conn,
                                    Frame&& frame) {
  const std::uint64_t ticket = conn->take_ticket();
  std::vector<std::uint8_t> payload;

  // Closes the connection with a typed reason the client can decode.
  const auto connection_error = [&](ngs::ErrorKind kind,
                                    const std::string& message) {
    reply_error(*conn, ticket, ErrorReply::kConnectionSeq, kind, message);
    return false;
  };

  try {
    switch (frame.type) {
      case FrameType::kHello: {
        const HelloRequest hello =
            decode_hello(frame.payload.data(), frame.payload.size());
        if (hello.protocol_version != kProtocolVersion) {
          return connection_error(
              ngs::ErrorKind::kConfig,
              "unsupported protocol version " +
                  std::to_string(hello.protocol_version) + " (server speaks " +
                  std::to_string(kProtocolVersion) + ")");
        }
        if (conn->hello_done) {
          return connection_error(ngs::ErrorKind::kParse,
                                  "duplicate HELLO on this connection");
        }
        conn->method = hello.method;
        conn->config = core::CorrectorConfig{};
        conn->config.genome_length = hello.genome_length;
        conn->config.k = hello.k;
        conn->config.error_rate = hello.error_rate;
        conn->config.tile_cache_mb = registry_.config().tile_cache_mb;
        conn->epoch = registry_.snapshot();
        // HELLO pays the (cached) corrector build, so the first REQ is
        // served at full speed.
        conn->corrector = conn->epoch->corrector_for(conn->method,
                                                     conn->config);
        conn->hello_done = true;

        HelloOk ok;
        ok.resolved_k = conn->corrector->spectrum_k();
        ok.epoch_id = conn->epoch->id();
        ok.max_inflight =
            static_cast<std::uint32_t>(options_.max_inflight_per_client);
        ok.max_batch_reads =
            static_cast<std::uint32_t>(options_.max_batch_reads);
        ok.max_frame_bytes = options_.max_frame_bytes;
        encode_hello_ok(ok, payload);
        conn->deposit(ticket, FrameType::kHelloOk, std::move(payload), false);
        return true;
      }
      case FrameType::kRequest: {
        handle_request(conn, ticket, std::move(frame));
        std::lock_guard<std::mutex> lock(conn->mutex);
        return !conn->closing && !conn->dead;
      }
      case FrameType::kStats: {
        const std::string text = stats_text();
        payload.assign(text.begin(), text.end());
        conn->deposit(ticket, FrameType::kStatsOk, std::move(payload), false);
        return true;
      }
      case FrameType::kReload: {
        // Runs on this connection's reader thread: the requesting
        // client waits, every other connection keeps streaming against
        // the old epoch until the swap.
        const std::uint64_t epoch_id = registry_.reload();
        ReloadOk ok;
        ok.epoch_id = epoch_id;
        encode_reload_ok(ok, payload);
        conn->deposit(ticket, FrameType::kReloadOk, std::move(payload), false);
        return true;
      }
      default:
        return connection_error(
            ngs::ErrorKind::kParse,
            "unexpected frame type " +
                std::to_string(static_cast<unsigned>(frame.type)) +
                " from client");
    }
  } catch (const ngs::Error& e) {
    // HELLO resolution / RELOAD verification failures: typed, and the
    // old serving state is untouched. The connection closes; the client
    // reports the decoded kind.
    return connection_error(e.kind(), e.what());
  } catch (const std::exception& e) {
    return connection_error(ngs::ErrorKind::kInternal, e.what());
  }
}

void CorrectionServer::handle_request(const std::shared_ptr<Connection>& conn,
                                      std::uint64_t ticket, Frame&& frame) {
  // A REQ that breaks the protocol closes the connection.
  const auto protocol_violation = [&](const std::string& message) {
    reply_error(*conn, ticket, ErrorReply::kConnectionSeq,
                ngs::ErrorKind::kParse, message);
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closing = true;
  };
  if (!conn->hello_done) return protocol_violation("REQ before HELLO");

  ReadBatch batch = decode_request(frame.payload.data(), frame.payload.size());
  frame.payload.clear();
  frame.payload.shrink_to_fit();

  if (batch.seq != conn->next_seq) {
    return protocol_violation("REQ seq " + std::to_string(batch.seq) +
                              " out of order (expected " +
                              std::to_string(conn->next_seq) + ")");
  }
  ++conn->next_seq;

  // Per-client window: stop consuming this socket until a reply slot
  // frees up. The kernel socket buffer then backpressures the client.
  {
    std::unique_lock<std::mutex> lock(conn->mutex);
    conn->cv.wait(lock, [&] {
      return conn->inflight < options_.max_inflight_per_client ||
             conn->closing || conn->dead;
    });
    if (conn->closing || conn->dead) return;
    ++conn->inflight;
  }

  if (batch.reads.size() > options_.max_batch_reads) {
    reply_error(*conn, ticket, batch.seq, ngs::ErrorKind::kConfig,
                "batch of " + std::to_string(batch.reads.size()) +
                    " reads exceeds the server's max_batch_reads=" +
                    std::to_string(options_.max_batch_reads));
    return;
  }

  // Hot reload visibility: each REQ resolves against the current epoch,
  // so batches sent after a reload use the new indexes while batches
  // already queued finish on the epoch they pinned.
  auto current = registry_.snapshot();
  if (current != conn->epoch) {
    try {
      conn->corrector = current->corrector_for(conn->method, conn->config);
      conn->epoch = std::move(current);
    } catch (const ngs::Error& e) {
      reply_error(*conn, ticket, batch.seq, e.kind(), e.what());
      return;
    }
  }

  Task task;
  task.conn = conn;
  task.ticket = ticket;
  task.seq = batch.seq;
  task.reads = std::move(batch.reads);
  task.corrector = conn->corrector;
  task.epoch = conn->epoch;
  if (!queue_->try_push(std::move(task))) {
    // Admission control: the shared queue is full (or the server is
    // shutting down) — shed this batch with a typed BUSY instead of
    // queueing unboundedly.
    ++busy_rejections_;
    BusyReply busy;
    busy.seq = batch.seq;
    std::vector<std::uint8_t> payload;
    encode_busy(busy, payload);
    conn->deposit(ticket, FrameType::kBusy, std::move(payload), true);
  }
}

void CorrectionServer::reply_error(Connection& conn, std::uint64_t ticket,
                                   std::uint64_t seq, ngs::ErrorKind kind,
                                   const std::string& message) {
  const bool answers_request = seq != ErrorReply::kConnectionSeq;
  if (!answers_request && kind == ngs::ErrorKind::kParse) ++protocol_errors_;
  ErrorReply err;
  err.seq = seq;
  err.code = wire_error_code(kind);
  err.message = message;
  std::vector<std::uint8_t> payload;
  encode_error(err, payload);
  conn.deposit(ticket, FrameType::kError, std::move(payload),
               answers_request);
}

void CorrectionServer::worker_loop() {
  // One scratch slot per worker, rebuilt when a task brings another
  // corrector (a new HELLO configuration or epoch), so a retired
  // corrector's scratch goes with the first batch after it. The weak_ptr
  // tells a retired corrector from a new one at a recycled address
  // without keeping it alive.
  std::weak_ptr<const core::Corrector> scratch_owner;
  std::unique_ptr<core::BatchScratch> scratch;
  const auto scratch_for =
      [&](const std::shared_ptr<const core::Corrector>& c) {
        if (scratch_owner.lock() != c) {
          scratch.reset();
          scratch = c->make_scratch();
          scratch_owner = c;
        }
        return scratch.get();
      };

  Task task;
  while (queue_->pop(task)) {
    std::vector<std::uint8_t> payload;
    try {
      fault::maybe_fail(fault::sites::kServiceWorker, ngs::ErrorKind::kTask,
                        "service: correcting batch");
      core::CorrectionReport report;
      std::vector<seq::Read> corrected;
      corrected.reserve(task.reads.size());
      task.corrector->correct_batch(std::span<const seq::Read>(task.reads),
                                    corrected, report,
                                    scratch_for(task.corrector));
      ResponseBatch resp;
      resp.seq = task.seq;
      resp.reads_changed = report.reads_changed;
      resp.bases_changed = report.bases_changed;
      resp.reads = std::move(corrected);
      encode_response(resp, payload);
      ++batches_corrected_;
      reads_corrected_ += task.reads.size();
      reads_changed_ += report.reads_changed;
      bases_changed_ += report.bases_changed;
      task.conn->deposit(task.ticket, FrameType::kResponse, std::move(payload),
                         true);
    } catch (const ngs::Error& e) {
      // One batch fails, the connection survives: the ERROR takes the
      // batch's reply slot so ordering and the window stay intact.
      ++batches_failed_;
      reply_error(*task.conn, task.ticket, task.seq, e.kind(), e.what());
    } catch (const std::exception& e) {
      ++batches_failed_;
      reply_error(*task.conn, task.ticket, task.seq,
                  ngs::ErrorKind::kInternal, e.what());
    }
    task = Task{};  // release the conn/epoch pins before the next pop
  }
}

ServerStats CorrectionServer::stats() const {
  ServerStats s;
  const auto epoch = registry_.snapshot();
  s.epoch_id = epoch->id();
  s.reloads = registry_.reloads();
  s.indexes = epoch->indexes().size();
  s.connections_accepted = connections_accepted_.load();
  s.connections_active = connections_active_.load();
  s.accept_failures = accept_failures_.load();
  s.batches_corrected = batches_corrected_.load();
  s.batches_failed = batches_failed_.load();
  s.busy_rejections = busy_rejections_.load();
  s.protocol_errors = protocol_errors_.load();
  s.reads_corrected = reads_corrected_.load();
  s.reads_changed = reads_changed_.load();
  s.bases_changed = bases_changed_.load();
  s.workers = options_.workers;
  s.queue_capacity = options_.queue_capacity;
  return s;
}

std::string CorrectionServer::stats_text() const {
  const ServerStats s = stats();
  std::string out;
  const auto line = [&out](const char* key, std::uint64_t value) {
    out += key;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  };
  line("epoch", s.epoch_id);
  line("reloads", s.reloads);
  line("indexes", s.indexes);
  line("connections_accepted", s.connections_accepted);
  line("connections_active", s.connections_active);
  line("accept_failures", s.accept_failures);
  line("batches_corrected", s.batches_corrected);
  line("batches_failed", s.batches_failed);
  line("busy_rejections", s.busy_rejections);
  line("protocol_errors", s.protocol_errors);
  line("reads_corrected", s.reads_corrected);
  line("reads_changed", s.reads_changed);
  line("bases_changed", s.bases_changed);
  line("workers", s.workers);
  line("queue_capacity", s.queue_capacity);
  return out;
}

}  // namespace ngs::service
