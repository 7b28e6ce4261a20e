// Correction-service suite: protocol codec fuzzing, frame transport
// hardening (truncation, garbage magic, oversized lengths, mid-stream
// disconnects), and the full daemon loop — byte-identity against the
// offline pipeline, in-order windowed streaming, typed BUSY under
// saturation, per-batch worker-fault salvage, epoch-based hot reload
// (including a corrupt replacement being rejected while the old epoch
// keeps serving, and a worker dropping the retired corrector's
// scratch), and serving an index built under a memory budget.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastx.hpp"
#include "io/fastq_stream.hpp"
#include "service/client.hpp"
#include "service/framing.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

// Pid-qualified: ctest runs the discovered tests and the `service`
// label suite as separate processes, possibly concurrently.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "ngs_svc_" + std::to_string(::getpid()) + "_" +
         name;
}

std::string make_fastq(std::uint64_t seed, std::size_t genome_length = 5000) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = genome_length;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 8.0;
  const auto run = sim::simulate_reads(genome.sequence, model, cfg, rng);
  std::ostringstream os;
  io::write_fastq(os, run.reads);
  return os.str();
}

std::vector<seq::Read> parse_reads(const std::string& fastq) {
  std::istringstream is(fastq);
  io::FastqStreamReader reader(is, "<test>");
  std::vector<seq::Read> reads;
  while (reader.read_batch(reads, 4096) > 0) {
  }
  return reads;
}

/// Offline reference run: the streaming pipeline with `method`, saving
/// the pass-1 spectrum to `index_path` for the daemon to serve (built
/// from spill bins when `memory_budget_bytes` forces a spill). Returns
/// the corrected FASTQ bytes the service must reproduce.
std::string offline_correct(const std::string& fastq,
                            const std::string& method,
                            const std::string& index_path = "",
                            std::size_t memory_budget_bytes = 0,
                            core::PipelineResult* result = nullptr) {
  core::PipelineOptions options;
  options.batch_size = 256;
  options.threads = 2;
  options.save_index_path = index_path;
  options.memory_budget_bytes = memory_budget_bytes;
  options.spill_dir = testing::TempDir();
  core::CorrectorConfig config;
  config.genome_length = 5000;
  core::CorrectionPipeline pipeline(core::make_corrector(method, config),
                                    options);
  std::ostringstream os;
  const auto run = pipeline.run(
      [&fastq] { return std::make_unique<std::istringstream>(fastq); }, os);
  if (result != nullptr) *result = run;
  return os.str();
}

/// Streams `fastq` through a connected client in `batch_size` chunks
/// and returns the corrected FASTQ bytes plus the stream tallies.
std::string client_correct(service::Client& client,
                           const service::HelloOk& limits,
                           const std::string& fastq,
                           std::size_t batch_size = 97,
                           service::StreamResult* result_out = nullptr) {
  std::istringstream is(fastq);
  io::FastqStreamReader reader(is, "<client>");
  service::StreamOptions stream;
  stream.batch_size = batch_size;
  stream.window = 4;
  std::ostringstream os;
  const auto result = service::correct_stream(
      client, limits, stream,
      [&](std::vector<seq::Read>& reads) {
        reads.clear();
        return reader.read_batch(reads, stream.batch_size) > 0;
      },
      [&](std::vector<seq::Read>&& corrected) {
        io::write_fastq(os, corrected);
      });
  if (result_out != nullptr) *result_out = result;
  return os.str();
}

service::HelloRequest sap_hello() {
  service::HelloRequest hello;
  hello.method = "sap";
  hello.genome_length = 5000;
  return hello;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }
};

// --- protocol codec ----------------------------------------------------

TEST_F(ServiceTest, CodecRoundTrips) {
  std::vector<std::uint8_t> buf;

  service::HelloRequest hello;
  hello.method = "reptile";
  hello.k = 13;
  hello.genome_length = 42;
  hello.error_rate = 0.25;
  service::encode_hello(hello, buf);
  const auto hello2 = service::decode_hello(buf.data(), buf.size());
  EXPECT_EQ(hello2.method, "reptile");
  EXPECT_EQ(hello2.k, 13);
  EXPECT_EQ(hello2.genome_length, 42u);
  EXPECT_DOUBLE_EQ(hello2.error_rate, 0.25);

  buf.clear();
  service::HelloOk ok;
  ok.resolved_k = 15;
  ok.epoch_id = 7;
  ok.max_inflight = 4;
  ok.max_batch_reads = 1000;
  ok.max_frame_bytes = 1 << 20;
  service::encode_hello_ok(ok, buf);
  const auto ok2 = service::decode_hello_ok(buf.data(), buf.size());
  EXPECT_EQ(ok2.resolved_k, 15);
  EXPECT_EQ(ok2.epoch_id, 7u);
  EXPECT_EQ(ok2.max_inflight, 4u);

  buf.clear();
  service::ReadBatch batch;
  batch.seq = 3;
  batch.reads.push_back({"r1", "ACGT", {30, 30, 31, 32}});
  batch.reads.push_back({"r2", "GGCC", {}});  // no quality
  service::encode_request(batch, buf);
  const auto batch2 = service::decode_request(buf.data(), buf.size());
  ASSERT_EQ(batch2.reads.size(), 2u);
  EXPECT_EQ(batch2.seq, 3u);
  EXPECT_EQ(batch2.reads[0].id, "r1");
  EXPECT_EQ(batch2.reads[0].bases, "ACGT");
  EXPECT_EQ(batch2.reads[0].quality,
            (std::vector<std::uint8_t>{30, 30, 31, 32}));
  EXPECT_EQ(batch2.reads[1].bases, "GGCC");
  EXPECT_TRUE(batch2.reads[1].quality.empty());

  buf.clear();
  service::ResponseBatch resp;
  resp.seq = 9;
  resp.reads_changed = 2;
  resp.bases_changed = 5;
  resp.reads.push_back({"r", "TTTT", {}});
  service::encode_response(resp, buf);
  const auto resp2 = service::decode_response(buf.data(), buf.size());
  EXPECT_EQ(resp2.seq, 9u);
  EXPECT_EQ(resp2.reads_changed, 2u);
  EXPECT_EQ(resp2.bases_changed, 5u);
  ASSERT_EQ(resp2.reads.size(), 1u);

  buf.clear();
  service::ErrorReply err;
  err.seq = 4;
  err.code = service::wire_error_code(ErrorKind::kIndex);
  err.message = "bad index";
  service::encode_error(err, buf);
  const auto err2 = service::decode_error(buf.data(), buf.size());
  EXPECT_EQ(err2.seq, 4u);
  EXPECT_EQ(err2.kind(), ErrorKind::kIndex);
  EXPECT_EQ(err2.message, "bad index");

  buf.clear();
  service::BusyReply busy;
  busy.seq = 11;
  service::encode_busy(busy, buf);
  EXPECT_EQ(service::decode_busy(buf.data(), buf.size()).seq, 11u);

  buf.clear();
  service::ReloadOk reload;
  reload.epoch_id = 5;
  service::encode_reload_ok(reload, buf);
  EXPECT_EQ(service::decode_reload_ok(buf.data(), buf.size()).epoch_id, 5u);
}

TEST_F(ServiceTest, ErrorKindsRoundTripTheWire) {
  for (const auto kind :
       {ErrorKind::kConfig, ErrorKind::kIo, ErrorKind::kParse,
        ErrorKind::kIndex, ErrorKind::kTask, ErrorKind::kInternal}) {
    EXPECT_EQ(service::error_kind_from_wire(service::wire_error_code(kind)),
              kind);
  }
}

// Every strict prefix of a valid payload must raise ProtocolError, not
// read past the buffer or accept a short record.
TEST_F(ServiceTest, CodecRejectsEveryTruncation) {
  std::vector<std::uint8_t> buf;
  service::ReadBatch batch;
  batch.seq = 1;
  batch.reads.push_back({"read-1", "ACGTACGT", {30, 30, 30, 30, 31, 31, 31, 31}});
  batch.reads.push_back({"read-2", "TTGG", {}});
  service::encode_request(batch, buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW((void)service::decode_request(buf.data(), len),
                 service::ProtocolError)
        << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too.
  buf.push_back(0);
  EXPECT_THROW((void)service::decode_request(buf.data(), buf.size()),
               service::ProtocolError);

  buf.clear();
  service::HelloRequest hello;
  hello.method = "sap";
  service::encode_hello(hello, buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW((void)service::decode_hello(buf.data(), len),
                 service::ProtocolError);
  }
}

// Deterministic byte-flip fuzz: a corrupted payload either decodes (the
// flip hit a don't-care bit) or raises ProtocolError — never crashes,
// never over-reads (run under ASan via the `service` label).
TEST_F(ServiceTest, CodecSurvivesByteFlipFuzz) {
  std::vector<std::uint8_t> buf;
  service::ReadBatch batch;
  batch.seq = 77;
  for (int i = 0; i < 8; ++i) {
    batch.reads.push_back({'r' + std::to_string(i), "ACGTACGTACGT",
                           std::vector<std::uint8_t>(12, 30)});
  }
  service::encode_request(batch, buf);
  util::Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    auto fuzzed = buf;
    const std::size_t pos = static_cast<std::size_t>(rng.below(fuzzed.size()));
    fuzzed[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      (void)service::decode_request(fuzzed.data(), fuzzed.size());
    } catch (const service::ProtocolError&) {
      // expected for most flips
    }
  }
}

// --- frame transport ---------------------------------------------------

/// Frame I/O over a socketpair, no server involved.
class FramingTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
    ServiceTest::TearDown();
  }
  void close_writer() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, RoundTripAndCleanEof) {
  service::FrameChannel writer(fds_[1]);
  service::FrameChannel reader(fds_[0]);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  writer.write_frame(service::FrameType::kStats, {});
  writer.write_frame(service::FrameType::kRequest, payload);
  close_writer();

  service::Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, service::FrameType::kStats);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, service::FrameType::kRequest);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(reader.read_frame(frame));  // clean EOF at the boundary
}

TEST_F(FramingTest, TruncatedHeaderIsIoError) {
  const std::uint8_t partial[7] = {0x4E, 0x47, 0x53, 0x43, 3, 0, 0};
  ASSERT_EQ(::write(fds_[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  close_writer();
  service::FrameChannel reader(fds_[0]);
  service::Frame frame;
  try {
    (void)reader.read_frame(frame);
    FAIL() << "truncated header accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
}

TEST_F(FramingTest, MidStreamDisconnectIsIoError) {
  // Valid header promising 100 payload bytes, then the peer vanishes.
  service::FrameChannel writer(fds_[1]);
  std::uint8_t header[16] = {};
  header[0] = 0x4E; header[1] = 0x47; header[2] = 0x53; header[3] = 0x43;
  header[4] = 3;  // kRequest
  header[8] = 100;
  ASSERT_EQ(::write(fds_[1], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  const std::uint8_t some[10] = {};
  ASSERT_EQ(::write(fds_[1], some, sizeof(some)),
            static_cast<ssize_t>(sizeof(some)));
  close_writer();
  service::FrameChannel reader(fds_[0]);
  service::Frame frame;
  try {
    (void)reader.read_frame(frame);
    FAIL() << "mid-frame disconnect accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
}

TEST_F(FramingTest, GarbageMagicIsProtocolError) {
  std::uint8_t header[16] = {0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0};
  ASSERT_EQ(::write(fds_[1], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  service::FrameChannel reader(fds_[0]);
  service::Frame frame;
  EXPECT_THROW((void)reader.read_frame(frame), service::ProtocolError);
}

TEST_F(FramingTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  std::uint8_t header[16] = {0x4E, 0x47, 0x53, 0x43, 3, 0, 0, 0};
  for (int i = 8; i < 16; ++i) header[i] = 0xff;  // ~2^64 payload "bytes"
  ASSERT_EQ(::write(fds_[1], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  service::FrameChannel reader(fds_[0], /*max_frame_bytes=*/1 << 20);
  service::Frame frame;
  EXPECT_THROW((void)reader.read_frame(frame), service::ProtocolError);
}

TEST_F(FramingTest, UnknownTypeAndReservedBytesAreProtocolErrors) {
  {
    std::uint8_t header[16] = {0x4E, 0x47, 0x53, 0x43, 200, 0, 0, 0};
    ASSERT_EQ(::write(fds_[1], header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    service::FrameChannel reader(fds_[0]);
    service::Frame frame;
    EXPECT_THROW((void)reader.read_frame(frame), service::ProtocolError);
  }
  {
    std::uint8_t header[16] = {0x4E, 0x47, 0x53, 0x43, 1, 9, 0, 0};
    ASSERT_EQ(::write(fds_[1], header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    service::FrameChannel reader(fds_[0]);
    service::Frame frame;
    EXPECT_THROW((void)reader.read_frame(frame), service::ProtocolError);
  }
}

// --- end-to-end server -------------------------------------------------

/// A running daemon over a fresh simulated data set: index on disk
/// (written by the offline sap reference run), reads on disk (for
/// buffered methods), expected outputs captured.
class ServerTest : public ServiceTest {
 protected:
  void start(service::ServiceOptions options = {},
             bool with_reads = true, std::size_t memory_budget_bytes = 0) {
    fastq_ = make_fastq(21);
    index_path_ = temp_path("server.ngsx");
    reads_path_ = temp_path("server_reads.fastq");
    {
      std::ofstream os(reads_path_);
      os << fastq_;
    }
    expected_sap_ = offline_correct(fastq_, "sap", index_path_,
                                    memory_budget_bytes, &offline_);

    socket_path_ = temp_path("d.sock");
    options.socket_path = socket_path_;
    service::IndexRegistryConfig registry;
    registry.index_paths.push_back(index_path_);
    if (with_reads) registry.reads_path = reads_path_;
    server_ = std::make_unique<service::CorrectionServer>(options, registry);
    server_->start();
  }

  void TearDown() override {
    server_.reset();
    std::remove(index_path_.c_str());
    std::remove(reads_path_.c_str());
    ServiceTest::TearDown();
  }

  service::Client make_client() {
    service::Client client(socket_path_);
    client.connect();
    return client;
  }

  std::string fastq_;
  std::string index_path_;
  std::string reads_path_;
  std::string socket_path_;
  std::string expected_sap_;
  core::PipelineResult offline_;
  std::unique_ptr<service::CorrectionServer> server_;
};

TEST_F(ServerTest, SapStreamingIsByteIdenticalToOffline) {
  start();
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  EXPECT_GT(limits.resolved_k, 0);
  EXPECT_EQ(limits.epoch_id, 1u);
  service::StreamResult result;
  const std::string served = client_correct(client, limits, fastq_, 97,
                                            &result);
  EXPECT_EQ(served, expected_sap_);
  EXPECT_EQ(result.reads, parse_reads(fastq_).size());
}

TEST_F(ServerTest, ReptileBufferedIsByteIdenticalToOffline) {
  start();
  const std::string expected = offline_correct(fastq_, "reptile");
  auto client = make_client();
  service::HelloRequest hello;
  hello.method = "reptile";
  hello.genome_length = 5000;
  const auto limits = client.hello(hello);
  EXPECT_EQ(limits.resolved_k, 0);  // buffered method
  EXPECT_EQ(client_correct(client, limits, fastq_), expected);
}

TEST_F(ServerTest, ConcurrentClientsAllGetIdenticalBytes) {
  start();
  std::vector<std::string> outputs(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    threads.emplace_back([this, &outputs, i] {
      service::Client client(socket_path_);
      client.connect();
      const auto limits = client.hello(sap_hello());
      outputs[i] = client_correct(client, limits, fastq_,
                                  61 + 13 * i);  // staggered batch sizes
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& out : outputs) EXPECT_EQ(out, expected_sap_);
}

TEST_F(ServerTest, HelloRejectsUnknownMethodAndMissingIndex) {
  start(/*options=*/{}, /*with_reads=*/false);
  {
    auto client = make_client();
    service::HelloRequest hello;
    hello.method = "no-such-method";
    try {
      (void)client.hello(hello);
      FAIL() << "unknown method accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig);
    }
  }
  {
    // Server holds only the sap index k; ask for a k it cannot serve.
    auto client = make_client();
    auto hello = sap_hello();
    hello.k = 9;  // index is k=12 for genome_length 5000
    try {
      (void)client.hello(hello);
      FAIL() << "unserved k accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig);
    }
  }
  {
    // Buffered method without --reads on the daemon.
    auto client = make_client();
    service::HelloRequest hello;
    hello.method = "reptile";
    try {
      (void)client.hello(hello);
      FAIL() << "buffered method without reads accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig);
    }
  }
  for (const double rate : {-1.0, 2.0, std::nan("")}) {
    // An error rate that is not a probability, NaN included.
    auto client = make_client();
    service::HelloRequest hello;
    hello.method = "redeem";
    hello.error_rate = rate;
    try {
      (void)client.hello(hello);
      FAIL() << "error rate " << rate << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kConfig);
      EXPECT_NE(std::string(e.what()).find("error rate"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ServerTest, OutOfOrderSeqClosesConnectionWithTypedError) {
  start();
  auto client = make_client();
  (void)client.hello(sap_hello());
  service::ReadBatch batch;
  batch.seq = 5;  // must be 0
  batch.reads.push_back({"r", "ACGTACGTACGT", {}});
  client.send_request(batch);
  const auto reply = client.read_reply();
  ASSERT_EQ(reply.type, service::FrameType::kError);
  const auto err =
      service::decode_error(reply.payload.data(), reply.payload.size());
  EXPECT_EQ(err.kind(), ErrorKind::kParse);
  EXPECT_EQ(err.seq, service::ErrorReply::kConnectionSeq);
}

TEST_F(ServerTest, RequestBeforeHelloIsRejected) {
  start();
  auto client = make_client();
  service::ReadBatch batch;
  batch.reads.push_back({"r", "ACGT", {}});
  client.send_request(batch);
  const auto reply = client.read_reply();
  ASSERT_EQ(reply.type, service::FrameType::kError);
  EXPECT_EQ(service::decode_error(reply.payload.data(), reply.payload.size())
                .kind(),
            ErrorKind::kParse);
}

TEST_F(ServerTest, GarbageBytesGetTypedErrorNotHang) {
  start();
  auto client = make_client();
  client.send_frame(service::FrameType::kHello,
                    std::vector<std::uint8_t>(37, 0xab));
  const auto reply = client.read_reply();
  ASSERT_EQ(reply.type, service::FrameType::kError);
  EXPECT_EQ(service::decode_error(reply.payload.data(), reply.payload.size())
                .kind(),
            ErrorKind::kParse);
}

TEST_F(ServerTest, WorkerFaultCostsOneBatchNotTheConnection) {
  // One worker takes batches in arrival order, so the one-shot fault
  // below lands on batch 0; with two, batch 1 could reach it first.
  service::ServiceOptions options;
  options.workers = 1;
  start(options);
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  const auto reads = parse_reads(fastq_);

  // Batch 0 will hit the injected worker fault; batches 1 and 2 must
  // still come back corrected, in order, on the same connection.
  fault::Registry::instance().configure("service.worker=n1");
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    service::ReadBatch batch;
    batch.seq = seq;
    batch.reads.assign(reads.begin() + 10 * seq,
                       reads.begin() + 10 * (seq + 1));
    client.send_request(batch);
  }
  const auto reply0 = client.read_reply();
  ASSERT_EQ(reply0.type, service::FrameType::kError);
  const auto err =
      service::decode_error(reply0.payload.data(), reply0.payload.size());
  EXPECT_EQ(err.seq, 0u);
  EXPECT_EQ(err.kind(), ErrorKind::kTask);
  for (std::uint64_t seq = 1; seq < 3; ++seq) {
    const auto reply = client.read_reply();
    ASSERT_EQ(reply.type, service::FrameType::kResponse) << "seq " << seq;
    const auto resp =
        service::decode_response(reply.payload.data(), reply.payload.size());
    EXPECT_EQ(resp.seq, seq);
    ASSERT_EQ(resp.reads.size(), 10u);
    EXPECT_EQ(resp.reads[0].id, reads[10 * seq].id);
  }
  // The connection is still fully usable.
  EXPECT_NE(client.stats().find("batches_failed=1"), std::string::npos);
  (void)limits;
}

TEST_F(ServerTest, SaturationShedsWithTypedBusy) {
  service::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.max_inflight_per_client = 8;
  start(options);
  auto client = make_client();
  (void)client.hello(sap_hello());

  // One big batch parks the only worker; the tiny queue then absorbs
  // one more batch, and the rest must be shed with BUSY carrying the
  // right seq — not silently dropped, not an error.
  const auto reads = parse_reads(fastq_);
  std::vector<seq::Read> big;
  for (int rep = 0; rep < 40; ++rep) {
    big.insert(big.end(), reads.begin(), reads.end());
  }
  service::ReadBatch batch;
  batch.seq = 0;
  batch.reads = big;
  client.send_request(batch);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    service::ReadBatch small;
    small.seq = seq;
    small.reads.assign(reads.begin(), reads.begin() + 4);
    client.send_request(small);
  }
  std::size_t busy = 0;
  std::size_t ok = 0;
  std::uint64_t last_reply_seq = 0;
  bool first = true;
  for (int i = 0; i < 7; ++i) {
    const auto reply = client.read_reply();
    std::uint64_t seq = 0;
    if (reply.type == service::FrameType::kBusy) {
      ++busy;
      seq = service::decode_busy(reply.payload.data(), reply.payload.size())
                .seq;
    } else {
      ASSERT_EQ(reply.type, service::FrameType::kResponse);
      ++ok;
      seq = service::decode_response(reply.payload.data(),
                                     reply.payload.size())
                .seq;
    }
    // Replies come back in request order regardless of shedding.
    if (!first) {
      EXPECT_GT(seq, last_reply_seq);
    }
    last_reply_seq = seq;
    first = false;
  }
  EXPECT_GE(busy, 1u) << "saturation never shed a batch";
  // Only the big batch is guaranteed a RESP: whether the first small
  // batch squeezes into the queue before the worker dequeues the big
  // one is a scheduling race (on one core the reader usually wins).
  EXPECT_GE(ok, 1u);
  EXPECT_NE(client.stats().find("busy_rejections="), std::string::npos);
}

TEST_F(ServerTest, BusyRetryPathDeliversCompleteOrderedOutput) {
  service::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.max_inflight_per_client = 8;
  start(options);
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  // Small batches + wide window against a tiny queue: correct_stream
  // must absorb any BUSYs via resend and still produce identical bytes.
  service::StreamResult result;
  const std::string served =
      client_correct(client, limits, fastq_, 31, &result);
  EXPECT_EQ(served, expected_sap_);
}

TEST_F(ServerTest, StatsReportsServingCounters) {
  start();
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  (void)client_correct(client, limits, fastq_);
  const std::string stats = client.stats();
  EXPECT_NE(stats.find("epoch=1\n"), std::string::npos);
  EXPECT_NE(stats.find("reloads=0\n"), std::string::npos);
  EXPECT_NE(stats.find("indexes=1\n"), std::string::npos);
  EXPECT_EQ(stats.find("batches_corrected=0\n"), std::string::npos);
}

TEST_F(ServerTest, HotReloadSwapsEpochWithoutDisruptingClients) {
  start();
  auto streaming = make_client();
  const auto limits = streaming.hello(sap_hello());

  auto control = make_client();
  EXPECT_EQ(control.reload(), 2u);

  // The pre-reload connection keeps working and picks up the new epoch
  // on its next request; bytes are identical (same index files).
  EXPECT_EQ(client_correct(streaming, limits, fastq_), expected_sap_);
  auto after = make_client();
  const auto limits2 = after.hello(sap_hello());
  EXPECT_EQ(limits2.epoch_id, 2u);
  EXPECT_EQ(client_correct(after, limits2, fastq_), expected_sap_);
}

// A passthrough method whose scratch counts its live instances, so a
// test can see how many scratch objects the daemon's workers hold.
std::atomic<int> g_live_scratch{0};

struct CountedScratch final : core::BatchScratch {
  CountedScratch() { ++g_live_scratch; }
  ~CountedScratch() override { --g_live_scratch; }
};

class ScratchCounter final : public core::Corrector {
 public:
  std::string_view method() const noexcept override {
    return "scratch_counter";
  }
  void build(const seq::ReadSet&) override { mark_ready(); }
  std::unique_ptr<core::BatchScratch> make_scratch() const override {
    return std::make_unique<CountedScratch>();
  }
  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out,
                     core::CorrectionReport& report,
                     core::BatchScratch*) const override {
    require_ready();
    for (const auto& r : in) {
      out.push_back(r);
      core::tally_read(r, r, report);
    }
  }
};

// Every RELOAD retires the epoch's corrector. A worker that served both
// sides of a reload must drop the retired corrector's scratch instead of
// keeping it beside the new one's.
TEST_F(ServerTest, WorkerDropsRetiredCorrectorScratchAcrossReloads) {
  core::register_corrector({"scratch_counter", "counts live scratch"},
                           [](const core::CorrectorConfig&) {
                             return std::make_unique<ScratchCounter>();
                           });
  service::ServiceOptions options;
  options.workers = 1;
  start(options);
  const std::string expected = offline_correct(fastq_, "scratch_counter");
  const auto reads = parse_reads(fastq_);

  auto client = make_client();
  auto control = make_client();
  service::HelloRequest hello;
  hello.method = "scratch_counter";
  hello.genome_length = 5000;
  (void)client.hello(hello);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    if (seq > 0) {
      ASSERT_EQ(control.reload(), seq + 1);
    }
    // One batch on the long-lived connection: it moves to the new
    // epoch's corrector while the old one is still pinned.
    service::ReadBatch batch;
    batch.seq = seq;
    batch.reads = reads;
    client.send_request(batch);
    const auto reply = client.read_reply();
    ASSERT_EQ(reply.type, service::FrameType::kResponse);
    const auto resp =
        service::decode_response(reply.payload.data(), reply.payload.size());
    std::ostringstream served;
    io::write_fastq(served, resp.reads);
    EXPECT_EQ(served.str(), expected) << "after reload " << seq;
    EXPECT_LE(g_live_scratch.load(), 1) << "after reload " << seq;
  }
}

TEST_F(ServerTest, ReloadFaultKeepsOldEpochServing) {
  start();
  fault::Registry::instance().configure("service.reload=n1");
  {
    auto client = make_client();
    try {
      (void)client.reload();
      FAIL() << "injected reload fault did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kIndex);
    }
  }
  // Old epoch still serves, same bytes; epoch id unchanged.
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  EXPECT_EQ(limits.epoch_id, 1u);
  EXPECT_EQ(client_correct(client, limits, fastq_), expected_sap_);
  EXPECT_NE(client.stats().find("reloads=0\n"), std::string::npos);
}

TEST_F(ServerTest, CorruptReplacementIndexIsRejectedOldEpochServes) {
  start();
  // Replace the index file via rename (new inode — the serving epoch's
  // mapping still points at the old bytes) with a corrupted copy.
  const std::string corrupt_path = index_path_ + ".corrupt";
  {
    std::ifstream in(index_path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 400u);
    bytes[300] = static_cast<char>(~bytes[300]);
    std::ofstream out(corrupt_path, std::ios::binary);
    out << bytes;
  }
  ASSERT_EQ(std::rename(corrupt_path.c_str(), index_path_.c_str()), 0);

  {
    auto client = make_client();
    try {
      (void)client.reload();
      FAIL() << "corrupt replacement index accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kIndex);
    }
  }
  // In-flight serving state is untouched: the old mapping still
  // produces the reference bytes.
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  EXPECT_EQ(limits.epoch_id, 1u);
  EXPECT_EQ(client_correct(client, limits, fastq_), expected_sap_);
}

TEST_F(ServerTest, ShardedIndexServesOfflineBytesAndRejectsCorruptShard) {
  // A budget far below the spectrum makes the offline reference save its
  // index from spill bins; the daemon verifies its checksums at load.
  start({}, true, 200000);
  ASSERT_GE(offline_.spectrum_spill_bins, 2u);
  {
    auto client = make_client();
    const auto limits = client.hello(sap_hello());
    EXPECT_EQ(client_correct(client, limits, fastq_), expected_sap_);
  }

  // Rename a copy with one flipped byte in its codes over the index:
  // the reload's checksum pass rejects it and epoch 1 keeps serving.
  const auto info = index::SpectrumIndex::read_info(index_path_);
  ASSERT_EQ(info.format_version, index::kFormatVersion);
  const auto codes =
      std::find_if(info.sections.begin(), info.sections.end(),
                   [](const index::IndexInfo::Section& section) {
                     return section.id == index::SectionId::kCodes;
                   });
  ASSERT_NE(codes, info.sections.end());
  const std::string corrupt_path = index_path_ + ".corrupt";
  {
    std::ifstream in(index_path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const std::size_t at = codes->offset + codes->bytes / 2;
    bytes[at] = static_cast<char>(~bytes[at]);
    std::ofstream out(corrupt_path, std::ios::binary);
    out << bytes;
  }
  ASSERT_EQ(std::rename(corrupt_path.c_str(), index_path_.c_str()), 0);
  {
    auto client = make_client();
    try {
      (void)client.reload();
      FAIL() << "corrupt codes payload accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kIndex);
    }
  }
  auto client = make_client();
  const auto limits = client.hello(sap_hello());
  EXPECT_EQ(limits.epoch_id, 1u);
  EXPECT_EQ(client_correct(client, limits, fastq_), expected_sap_);
}

TEST_F(ServerTest, OversizedBatchGetsPerRequestConfigError) {
  service::ServiceOptions options;
  options.max_batch_reads = 8;
  start(options);
  auto client = make_client();
  (void)client.hello(sap_hello());
  const auto reads = parse_reads(fastq_);
  service::ReadBatch batch;
  batch.seq = 0;
  batch.reads.assign(reads.begin(), reads.begin() + 9);
  client.send_request(batch);
  const auto reply = client.read_reply();
  ASSERT_EQ(reply.type, service::FrameType::kError);
  const auto err =
      service::decode_error(reply.payload.data(), reply.payload.size());
  EXPECT_EQ(err.seq, 0u);
  EXPECT_EQ(err.kind(), ErrorKind::kConfig);
  // The connection survives the oversized batch.
  service::ReadBatch ok;
  ok.seq = 1;
  ok.reads.assign(reads.begin(), reads.begin() + 4);
  client.send_request(ok);
  const auto reply2 = client.read_reply();
  EXPECT_EQ(reply2.type, service::FrameType::kResponse);
}

}  // namespace
