#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

namespace ngs::service {

Client::Client(std::string socket_path, std::uint64_t max_frame_bytes)
    : socket_path_(std::move(socket_path)),
      max_frame_bytes_(max_frame_bytes) {}

Client::~Client() { close(); }

void Client::connect() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw ngs::Error(ngs::ErrorKind::kConfig, "",
                     "socket path '" + socket_path_ +
                         "' exceeds the AF_UNIX limit of " +
                         std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw ngs::Error(ngs::ErrorKind::kIo, "",
                     std::string("client: socket() failed: ") +
                         std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw ngs::Error(ngs::ErrorKind::kIo, "",
                     "client: cannot connect to '" + socket_path_ +
                         "': " + std::strerror(saved) +
                         " (is ngs-correctd running?)");
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send_frame(FrameType type,
                        const std::vector<std::uint8_t>& payload) {
  FrameChannel channel(fd_, max_frame_bytes_);
  channel.write_frame(type, payload);
}

void Client::send_request(const ReadBatch& batch) {
  std::vector<std::uint8_t> payload;
  encode_request(batch, payload);
  send_frame(FrameType::kRequest, payload);
}

Frame Client::read_reply() {
  FrameChannel channel(fd_, max_frame_bytes_);
  Frame frame;
  if (!channel.read_frame(frame)) {
    throw ngs::Error(ngs::ErrorKind::kIo, "",
                     "client: server closed the connection");
  }
  return frame;
}

[[noreturn]] void throw_error_reply(const ErrorReply& error) {
  throw ngs::Error(error.kind(), "service.client", error.message);
}

namespace {

/// One round trip of a one-shot verb: sends `verb` and returns the
/// reply, rethrowing an ERROR as the server's typed error and raising
/// ProtocolError for any frame but `expected` (named `expected_name`).
Frame round_trip(Client& client, FrameType verb,
                 const std::vector<std::uint8_t>& payload,
                 FrameType expected, const char* expected_name) {
  client.send_frame(verb, payload);
  Frame reply = client.read_reply();
  if (reply.type == FrameType::kError) {
    throw_error_reply(decode_error(reply.payload.data(),
                                   reply.payload.size()));
  }
  if (reply.type != expected) {
    throw ProtocolError(std::string("expected ") + expected_name +
                        ", got frame type " +
                        std::to_string(static_cast<unsigned>(reply.type)));
  }
  return reply;
}

}  // namespace

HelloOk Client::hello(const HelloRequest& request) {
  std::vector<std::uint8_t> payload;
  encode_hello(request, payload);
  const Frame reply = round_trip(*this, FrameType::kHello, payload,
                                 FrameType::kHelloOk, "HELLO_OK");
  return decode_hello_ok(reply.payload.data(), reply.payload.size());
}

std::string Client::stats() {
  const Frame reply = round_trip(*this, FrameType::kStats, {},
                                 FrameType::kStatsOk, "STATS_OK");
  return std::string(reply.payload.begin(), reply.payload.end());
}

std::uint64_t Client::reload() {
  const Frame reply = round_trip(*this, FrameType::kReload, {},
                                 FrameType::kReloadOk, "RELOAD_OK");
  return decode_reload_ok(reply.payload.data(), reply.payload.size()).epoch_id;
}

StreamResult correct_stream(
    Client& client, const HelloOk& limits, const StreamOptions& options,
    const std::function<bool(std::vector<seq::Read>&)>& next_batch,
    const std::function<void(std::vector<seq::Read>&&)>& on_corrected) {
  std::size_t window = options.window == 0 ? 1 : options.window;
  if (limits.max_inflight > 0 && window > limits.max_inflight) {
    window = limits.max_inflight;
  }

  /// One outstanding batch: its position in the input stream, the
  /// original reads (kept for a BUSY resend — the server discarded its
  /// copy), and how often it has been shed already.
  struct InFlight {
    std::uint64_t batch_index = 0;
    std::vector<seq::Read> reads;
    std::size_t busy_count = 0;
  };

  StreamResult result;
  std::map<std::uint64_t, InFlight> inflight;           // by wire seq
  std::map<std::uint64_t, std::vector<seq::Read>> done;  // by batch_index
  std::uint64_t next_seq = 0;        // wire seqs: contiguous, never reused
  std::uint64_t next_batch_index = 0;
  std::uint64_t next_emit = 0;       // batch_index the sink gets next
  bool input_done = false;

  const auto send_one = [&](InFlight entry) {
    ReadBatch batch;
    batch.seq = next_seq;
    batch.reads = std::move(entry.reads);
    client.send_request(batch);
    entry.reads = std::move(batch.reads);  // keep for a possible resend
    inflight.emplace(next_seq, std::move(entry));
    ++next_seq;
  };

  while (!input_done || !inflight.empty()) {
    // Fill the window.
    while (!input_done && inflight.size() < window) {
      std::vector<seq::Read> reads;
      if (!next_batch(reads) || reads.empty()) {
        input_done = true;
        break;
      }
      result.reads += reads.size();
      ++result.batches;
      InFlight entry;
      entry.batch_index = next_batch_index++;
      entry.reads = std::move(reads);
      send_one(std::move(entry));
    }
    if (inflight.empty()) break;

    Frame reply = client.read_reply();
    switch (reply.type) {
      case FrameType::kResponse: {
        ResponseBatch resp =
            decode_response(reply.payload.data(), reply.payload.size());
        const auto it = inflight.find(resp.seq);
        if (it == inflight.end()) {
          throw ProtocolError("RESP for unknown seq " +
                              std::to_string(resp.seq));
        }
        result.reads_changed += resp.reads_changed;
        result.bases_changed += resp.bases_changed;
        done.emplace(it->second.batch_index, std::move(resp.reads));
        inflight.erase(it);
        // Deliver everything now contiguous from the front.
        for (auto ready = done.find(next_emit); ready != done.end();
             ready = done.find(next_emit)) {
          on_corrected(std::move(ready->second));
          done.erase(ready);
          ++next_emit;
        }
        break;
      }
      case FrameType::kBusy: {
        const BusyReply busy =
            decode_busy(reply.payload.data(), reply.payload.size());
        auto it = inflight.find(busy.seq);
        if (it == inflight.end()) {
          throw ProtocolError("BUSY for unknown seq " +
                              std::to_string(busy.seq));
        }
        InFlight entry = std::move(it->second);
        inflight.erase(it);
        ++entry.busy_count;
        ++result.busy_retries;
        if (entry.busy_count > options.busy_retry_limit) {
          throw ngs::Error(ngs::ErrorKind::kTask, "service.client",
                           "batch " + std::to_string(entry.batch_index) +
                               " shed " + std::to_string(entry.busy_count) +
                               " times by admission control; giving up");
        }
        std::size_t backoff = options.busy_backoff_ms;
        for (std::size_t i = 1; i < entry.busy_count && backoff < 100; ++i) {
          backoff *= 2;
        }
        if (backoff > 100) backoff = 100;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        // Resend under a fresh seq: server-side sequence numbers stay
        // contiguous, and input order is preserved via batch_index.
        send_one(std::move(entry));
        break;
      }
      case FrameType::kError: {
        throw_error_reply(
            decode_error(reply.payload.data(), reply.payload.size()));
      }
      default:
        throw ProtocolError("unexpected frame type " +
                            std::to_string(static_cast<unsigned>(reply.type)) +
                            " while streaming");
    }
  }
  return result;
}

}  // namespace ngs::service
