// perfbench_harness — the compiled half of the repository benchmark
// (perfbench/run.py drives it). It reaches the program under test only
// through public library functions and the shipped tools' inputs and
// outputs:
//
//   gen   — simulates Table 2.1 D3 from a seed and writes reads.fastq
//           (what the program sees) and truth.txt (kept by the bench);
//   eval  — gain / sensitivity / specificity of a corrected FASTQ
//           against the simulator truth (eval::evaluate_correction);
//   info  — compiler and active SIMD dispatch level, for provenance;
//   exec  — runs one program and reports its exit code, wall time,
//           peak RSS and CPU seconds from wait4 (see cmd_exec);
//   hello — waits for a daemon's socket and times the first HELLO_OK;
//   load  — closed-loop client load against ngs-correctd: C
//           connections, each streaming the whole read set in REQ
//           batches with a window of replies in flight, every reply
//           checked against the offline reference output;
//   trace — the traced run of one workload: spans around the public
//           calls of each layer plus serial replays of the calls that
//           run inside one public function (see cmd_trace).
//
// Every command prints one JSON object on stdout.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "eval/correction_metrics.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "kspec/tile_table.hpp"
#include "reptile/params.hpp"
#include "seq/kmer.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sim/datasets.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

using namespace ngs;

namespace {

// ---------------------------------------------------------------- clock

/// Seconds on CLOCK_MONOTONIC — the clock Python's time.monotonic()
/// reads, so run.py can subtract its own timestamps from ours.
double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------- JSON

/// Flat JSON object writer: numbers with every digit, strings escaped.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
    return raw(key, os.str());
  }
  JsonObject& num(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<double>& values) {
  std::ostringstream os;
  os << std::setprecision(17) << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i > 0 ? ", " : "") << values[i];
  }
  os << "]";
  return os.str();
}

// --------------------------------------------------------------- spans

/// In-memory span recorder. A span has a name, the span that caused it
/// (-1 for a top-level span), and start/end on the monotonic clock.
/// Spans are written out once, when the traced run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int open(std::string name, int parent = -1) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, mono_now(), 0.0});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const double now = mono_now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  void add(std::string name, int parent, double start, double end) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, start, end});
  }

  /// Total duration of every span called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const auto& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }

  /// Seconds of [begin, end] covered by no top-level span.
  double uncovered(double begin, double end) const {
    std::vector<std::pair<double, double>> cover;
    for (const auto& s : spans_) {
      if (s.parent >= 0) continue;
      const double a = std::max(s.start, begin);
      const double b = std::min(s.end, end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = begin;
    for (const auto& [a, b] : cover) {
      if (b <= reach) continue;
      covered += b - std::max(a, reach);
      reach = b;
    }
    return (end - begin) - covered;
  }

  void write(const std::string& path, double origin) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << JsonObject()
                .num("id", static_cast<std::uint64_t>(i))
                .raw("parent", std::to_string(s.parent))
                .str("name", s.name)
                .num("start_s", s.start - origin)
                .num("end_s", s.end - origin)
                .dump()
         << "\n";
    }
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, int parent = -1)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent)) {}
  ~Scoped() { tracer_.close(id_); }
  int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Tracing decorator: delegates every call to the real corrector and
/// spans phase 1 (build / build_from_spectrum) and every worker's
/// correct_batch. `build_started` records when the pipeline handed over
/// to phase 1, which closes the span of everything before it.
class TracingCorrector final : public core::Corrector {
 public:
  TracingCorrector(std::unique_ptr<core::Corrector> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  double build_started = 0.0;

  std::string_view method() const noexcept override {
    return inner_->method();
  }
  int spectrum_k() const noexcept override { return inner_->spectrum_k(); }
  bool spectrum_both_strands() const noexcept override {
    return inner_->spectrum_both_strands();
  }
  bool supports_batches() const noexcept override {
    return inner_->supports_batches();
  }
  std::unique_ptr<core::BatchScratch> make_scratch() const override {
    return inner_->make_scratch();
  }
  void build_from_spectrum(kspec::KSpectrum spectrum,
                           const core::InputSummary& input) override {
    build_started = mono_now();
    Scoped span(tracer_, "core.build");
    inner_->build_from_spectrum(std::move(spectrum), input);
    mark_ready();
  }
  void build(const seq::ReadSet& reads) override {
    build_started = mono_now();
    Scoped span(tracer_, "core.build");
    inner_->build(reads);
    mark_ready();
  }
  void correct_batch(std::span<const seq::Read> in,
                     std::vector<seq::Read>& out,
                     core::CorrectionReport& report,
                     core::BatchScratch* scratch) const override {
    Scoped span(tracer_, "core.correct_batch");
    inner_->correct_batch(in, out, report, scratch);
  }
  void annotate_report(core::CorrectionReport& report) const override {
    inner_->annotate_report(report);
  }

 private:
  std::unique_ptr<core::Corrector> inner_;
  Tracer& tracer_;
};

/// Stream buffer that forwards to a file buffer and spans each device
/// read (underflow) or write (overflow/flush) as io.read / io.write.
class TracedFileBuf final : public std::streambuf {
 public:
  TracedFileBuf(const std::string& path, std::ios::openmode mode,
                Tracer& tracer)
      : tracer_(tracer), buffer_(1 << 16) {
    if (file_.open(path, mode | std::ios::binary) == nullptr) {
      throw std::runtime_error("cannot open " + path);
    }
    if (mode & std::ios::out) {
      setp(buffer_.data(), buffer_.data() + buffer_.size());
    }
  }
  ~TracedFileBuf() override { sync(); }

 protected:
  int_type underflow() override {
    Scoped span(tracer_, "io.read");
    const auto n = file_.sgetn(buffer_.data(),
                               static_cast<std::streamsize>(buffer_.size()));
    if (n <= 0) return traits_type::eof();
    setg(buffer_.data(), buffer_.data(), buffer_.data() + n);
    return traits_type::to_int_type(buffer_[0]);
  }
  int_type overflow(int_type c) override {
    if (flush_out() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    if (pbase() == nullptr) return 0;
    if (flush_out() != 0) return -1;
    return file_.pubsync();
  }

 private:
  int flush_out() {
    const auto n = pptr() - pbase();
    if (n == 0) return 0;
    Scoped span(tracer_, "io.write");
    const bool ok = file_.sputn(pbase(), n) == n;
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    return ok ? 0 : -1;
  }

  Tracer& tracer_;
  std::filebuf file_;
  std::vector<char> buffer_;
};

class TracedInput final : public std::istream {
 public:
  TracedInput(const std::string& path, Tracer& tracer)
      : std::istream(nullptr), buf_(path, std::ios::in, tracer) {
    rdbuf(&buf_);
  }

 private:
  TracedFileBuf buf_;
};

class TracedOutput final : public std::ostream {
 public:
  TracedOutput(const std::string& path, Tracer& tracer)
      : std::ostream(nullptr), buf_(path, std::ios::out | std::ios::trunc,
                                    tracer) {
    rdbuf(&buf_);
  }

 private:
  TracedFileBuf buf_;
};

// ------------------------------------------------------------- dataset

sim::DatasetSpec d3_spec(double scale) {
  // Table 2.1 D3: A. sp-like genome, 36 bp reads, 173x, 1.5% error.
  return sim::chapter2_specs(scale).at(2);
}

std::vector<seq::Read> read_all(const std::string& path) {
  io::FastqStreamReader reader(path);
  std::vector<seq::Read> reads;
  while (reader.read_batch(reads, 1 << 16) > 0) {
  }
  return reads;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool same_read(const seq::Read& a, const seq::Read& b) {
  return a.id == b.id && a.bases == b.bases && a.quality == b.quality;
}

int cmd_gen(const util::CliParser& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string dir = cli.get("dir");
  const auto spec = d3_spec(cli.get_double("scale", 1.0));
  const double t0 = mono_now();
  const auto data = sim::make_dataset(spec, seed);
  io::write_fastq_file(dir + "/reads.fastq", data.sim.reads);
  {
    std::ofstream truth(dir + "/truth.txt");
    for (const auto& t : data.sim.reads.truth) truth << t.true_bases << '\n';
    if (!truth) throw std::runtime_error("cannot write truth.txt");
  }
  const double seconds = mono_now() - t0;
  std::cout << JsonObject()
                   .str("dataset", spec.name)
                   .num("reads", static_cast<std::uint64_t>(
                                     data.sim.reads.size()))
                   .num("bases", data.sim.reads.total_bases())
                   .num("genome_length", static_cast<std::uint64_t>(
                                             spec.genome.length))
                   .num("seconds", seconds)
                   .dump()
            << "\n";
  return 0;
}

int cmd_eval(const util::CliParser& cli) {
  seq::ReadSet original;
  original.reads = read_all(cli.get("reads"));
  {
    std::ifstream truth(cli.get("truth"));
    std::string line;
    while (std::getline(truth, line)) {
      seq::ReadTruth t;
      t.true_bases = line;
      original.truth.push_back(std::move(t));
    }
  }
  const auto corrected = read_all(cli.get("corrected"));
  if (!original.has_truth() || corrected.size() != original.size()) {
    throw std::runtime_error("eval: read, truth and output counts differ");
  }
  const auto c = eval::evaluate_correction(original, corrected);
  std::cout << JsonObject()
                   .num("gain", c.gain())
                   .num("sensitivity", c.sensitivity())
                   .num("specificity", c.specificity())
                   .num("tp", c.tp)
                   .num("fp", c.fp)
                   .num("fn", c.fn)
                   .dump()
            << "\n";
  return 0;
}

int cmd_info(const util::CliParser&) {
  std::cout << JsonObject()
                   .str("compiler", std::string("g++ ") + __VERSION__)
                   .str("simd", util::simd::level_name(util::simd::active()))
                   .dump()
            << "\n";
  return 0;
}

volatile sig_atomic_t exec_child = -1;

void forward_signal(int sig) {
  if (exec_child > 0) kill(static_cast<pid_t>(exec_child), sig);
}

/// Runs argv[0] with its stdout sent to stderr, forwarding SIGTERM and
/// SIGINT to it, and prints its exit code, wall time, peak RSS and CPU
/// seconds. The program is started with fork + exec from this small
/// process on purpose: Linux counts the RSS of the address space a
/// process execs from in its ru_maxrss, so a child spawned straight from
/// the (larger) Python driver would report the driver's RSS as a floor.
/// Both this process and the program get SIGTERM if their parent dies,
/// so a killed driver leaves no daemon behind.
int cmd_exec(char** argv) {
  struct sigaction action {};
  action.sa_handler = forward_signal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  const double t0 = mono_now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(2, 1);
    execv(argv[0], argv);
    _exit(127);
  }
  exec_child = pid;
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  const double wall = mono_now() - t0;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  std::cout << JsonObject()
                   .raw("exit", std::to_string(code))
                   .num("wall_s", wall)
                   .num("peak_rss_mb",
                        static_cast<double>(usage.ru_maxrss) / 1024.0)
                   .num("cpu_s", seconds(usage.ru_utime) +
                                     seconds(usage.ru_stime))
                   .dump()
            << std::endl;
  return 0;
}

// ------------------------------------------------------------- service

/// Connects, retrying while the daemon is still starting up.
service::Client connect_when_ready(const std::string& socket,
                                   double timeout_s) {
  const double deadline = mono_now() + timeout_s;
  for (;;) {
    service::Client client(socket);
    try {
      client.connect();
      return client;
    } catch (const Error&) {
      if (mono_now() > deadline) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

service::HelloRequest sap_hello(const util::CliParser& cli) {
  service::HelloRequest hello;
  hello.method = "sap";
  hello.genome_length =
      static_cast<std::uint64_t>(cli.get_int("genome-length", 1000000));
  return hello;
}

int cmd_hello(const util::CliParser& cli) {
  auto client = connect_when_ready(cli.get("socket"),
                                   cli.get_double("timeout", 30.0));
  (void)client.hello(sap_hello(cli));
  const double ready = mono_now();
  std::cout << JsonObject().num("hello_ok_mono", ready).dump() << "\n";
  return 0;
}

/// What one connection saw during one pass over the read set.
struct PassStats {
  double first_send = 0.0;
  double last_recv = 0.0;
  std::uint64_t reads = 0;
};

/// One client connection of the closed loop.
struct Connection {
  std::vector<PassStats> passes;
  std::vector<double> latency_ms;  // send -> RESP, BUSY resends included
  std::vector<double> encode_ms, decode_ms;  // traced pass only
  std::uint64_t attempted = 0, busy = 0, errors = 0, mismatched = 0;
};

/// Streams every batch of `reads` once through `client`, keeping up to
/// `window` REQs in flight. Each RESP is checked against the matching
/// slice of `expected`. With `tracer`, the codec and socket calls are
/// spanned and their durations kept.
PassStats run_pass(service::Client& client, std::size_t window,
                   std::size_t batch_reads,
                   const std::vector<seq::Read>& reads,
                   const std::vector<seq::Read>& expected,
                   std::uint64_t& next_seq, Connection& conn,
                   Tracer* tracer) {
  struct InFlight {
    std::uint64_t seq;
    std::size_t batch;
    double sent;
  };
  const std::size_t batches = (reads.size() + batch_reads - 1) / batch_reads;
  std::deque<InFlight> inflight;  // replies arrive in seq order
  std::deque<std::pair<std::size_t, double>> resend;
  std::size_t next_batch = 0;
  PassStats pass;
  pass.first_send = mono_now();
  const auto timed = [&](const char* name, auto&& fn) {
    if (tracer == nullptr) return fn();
    Scoped span(*tracer, name);
    return fn();
  };
  const auto send = [&](std::size_t b, double first_sent) {
    service::ReadBatch batch;
    batch.seq = next_seq++;
    const std::size_t begin = b * batch_reads;
    const std::size_t end = std::min(begin + batch_reads, reads.size());
    batch.reads.assign(reads.begin() + static_cast<std::ptrdiff_t>(begin),
                       reads.begin() + static_cast<std::ptrdiff_t>(end));
    std::vector<std::uint8_t> payload;
    const double t0 = mono_now();
    timed("service.encode", [&] {
      service::encode_request(batch, payload);
      return 0;
    });
    if (tracer != nullptr) conn.encode_ms.push_back((mono_now() - t0) * 1e3);
    timed("service.send", [&] {
      client.send_frame(service::FrameType::kRequest, payload);
      return 0;
    });
    ++conn.attempted;
    inflight.push_back({batch.seq, b, first_sent > 0.0 ? first_sent : t0});
  };
  while (next_batch < batches || !resend.empty() || !inflight.empty()) {
    while (inflight.size() < window &&
           (!resend.empty() || next_batch < batches)) {
      if (!resend.empty()) {
        const auto [b, sent] = resend.front();
        resend.pop_front();
        send(b, sent);
      } else {
        send(next_batch++, 0.0);
      }
    }
    const service::Frame reply =
        timed("service.read_reply", [&] { return client.read_reply(); });
    const InFlight front = inflight.front();
    inflight.pop_front();
    if (reply.type == service::FrameType::kBusy) {
      ++conn.busy;
      resend.emplace_back(front.batch, front.sent);
      continue;
    }
    if (reply.type != service::FrameType::kResponse) {
      ++conn.errors;
      continue;
    }
    const double t0 = mono_now();
    const auto resp = timed("service.decode", [&] {
      return service::decode_response(reply.payload.data(),
                                      reply.payload.size());
    });
    const double t1 = mono_now();
    if (tracer != nullptr) conn.decode_ms.push_back((t1 - t0) * 1e3);
    conn.latency_ms.push_back((t1 - front.sent) * 1e3);
    pass.last_recv = t1;
    const std::size_t begin = front.batch * batch_reads;
    bool ok = resp.seq == front.seq &&
              begin + resp.reads.size() <= expected.size() &&
              resp.reads.size() ==
                  std::min(batch_reads, reads.size() - begin);
    for (std::size_t i = 0; ok && i < resp.reads.size(); ++i) {
      ok = same_read(resp.reads[i], expected[begin + i]);
    }
    if (!ok) ++conn.mismatched;
    pass.reads += resp.reads.size();
  }
  return pass;
}

std::uint64_t stats_value(const std::string& text, const std::string& key) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(key + "=", 0) == 0) {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return 0;
}

/// Closed loop: every connection runs passes over the whole read set
/// until `seconds` have elapsed (at least one pass). Passes start
/// together on a barrier. Throughput is the reads of all connections
/// over the span from the first REQ to the last RESP, for the whole
/// window (reads_per_s) and per pass.
/// With --traced, exactly two passes run: an untraced one, then a
/// traced one, so their wall times give the tracing overhead.
int cmd_load(const util::CliParser& cli) {
  const std::string socket = cli.get("socket");
  const auto connections =
      static_cast<std::size_t>(cli.get_int("connections", 2));
  const auto window = static_cast<std::size_t>(cli.get_int("window", 4));
  const auto batch_reads = static_cast<std::size_t>(cli.get_int("batch", 256));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool traced = cli.get_int("traced", 0) != 0;
  const auto reads = read_all(cli.get("reads"));
  const auto expected = read_all(cli.get("expect"));
  if (reads.size() != expected.size()) {
    throw std::runtime_error("load: reference and input differ in size");
  }

  std::vector<service::Client> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(connect_when_ready(socket, 30.0));
  }
  std::vector<std::size_t> windows;
  for (auto& client : clients) {
    const auto limits = client.hello(sap_hello(cli));
    windows.push_back(std::min<std::size_t>(
        window, limits.max_inflight > 0 ? limits.max_inflight : window));
  }

  Tracer tracer;
  std::vector<Connection> conns(connections);
  const double deadline = mono_now() + seconds;
  std::size_t passes_done = 0;
  bool more = true;
  std::barrier sync(static_cast<std::ptrdiff_t>(connections), [&]() noexcept {
    ++passes_done;
    more = traced ? passes_done < 2 : mono_now() < deadline;
  });
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::string error;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t next_seq = 0;
      bool failed = false;
      do {
        try {
          if (!failed) {
            Tracer* t = traced && passes_done == 1 ? &tracer : nullptr;
            conns[c].passes.push_back(run_pass(clients[c], windows[c],
                                               batch_reads, reads, expected,
                                               next_seq, conns[c], t));
          }
        } catch (const std::exception& e) {
          failed = true;
          std::lock_guard<std::mutex> lock(error_mutex);
          error = e.what();
        }
        sync.arrive_and_wait();
      } while (more);
    });
  }
  for (auto& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error("load: " + error);

  const std::string stats = clients[0].stats();
  std::vector<double> pass_rates, pass_walls, latency;
  double window_first = 1e300, window_last = 0.0;
  std::uint64_t window_reads = 0;
  JsonObject out;
  std::uint64_t attempted = 0, busy = 0, errors = 0, mismatched = 0;
  std::vector<double> encode_ms, decode_ms;
  for (std::size_t p = 0; p < passes_done; ++p) {
    double first = 1e300, last = 0.0;
    std::uint64_t n = 0;
    for (const auto& conn : conns) {
      first = std::min(first, conn.passes[p].first_send);
      last = std::max(last, conn.passes[p].last_recv);
      n += conn.passes[p].reads;
    }
    pass_walls.push_back(last - first);
    pass_rates.push_back(static_cast<double>(n) / (last - first));
    window_first = std::min(window_first, first);
    window_last = std::max(window_last, last);
    window_reads += n;
  }
  for (const auto& conn : conns) {
    latency.insert(latency.end(), conn.latency_ms.begin(),
                   conn.latency_ms.end());
    encode_ms.insert(encode_ms.end(), conn.encode_ms.begin(),
                     conn.encode_ms.end());
    decode_ms.insert(decode_ms.end(), conn.decode_ms.begin(),
                     conn.decode_ms.end());
    attempted += conn.attempted;
    busy += conn.busy;
    errors += conn.errors;
    mismatched += conn.mismatched;
  }
  out.num("passes", static_cast<std::uint64_t>(passes_done))
      .num("reads_per_s", static_cast<double>(window_reads) /
                              (window_last - window_first))
      .raw("pass_reads_per_s", json_array(pass_rates))
      .raw("pass_wall_s", json_array(pass_walls))
      .raw("latency_ms", json_array(latency))
      .num("attempted", attempted)
      .num("busy", busy)
      .num("errors", errors)
      .num("mismatched", mismatched)
      .num("server_protocol_errors", stats_value(stats, "protocol_errors"))
      .num("server_busy_rejections", stats_value(stats, "busy_rejections"))
      .num("server_batches_failed", stats_value(stats, "batches_failed"))
      .num("server_reads_changed", stats_value(stats, "reads_changed"));
  if (traced) {
    double first = 1e300, last = 0.0;
    for (const auto& conn : conns) {
      first = std::min(first, conn.passes[1].first_send);
      last = std::max(last, conn.passes[1].last_recv);
    }
    tracer.write(cli.get("spans"), first);
    out.num("encode_ms", median(encode_ms))
        .num("decode_ms", median(decode_ms))
        .num("unexplained_s", tracer.uncovered(first, last))
        .num("overhead_ratio", pass_walls[1] / pass_walls[0] - 1.0);
  }
  std::cout << out.dump() << "\n";
  return 0;
}

// --------------------------------------------------------------- trace

struct TraceConfig {
  std::string workload;
  std::string dir;
  std::string expect;  // the reference output's bytes
  std::uint64_t genome_length = 0;
  std::size_t workers = 2;
  std::size_t budget_bytes = 0;
  std::size_t batch = 4096;
  std::string method() const {
    return workload == "correct_reptile" ? "reptile" : "sap";
  }
};

core::CorrectorConfig corrector_config(const TraceConfig& tc) {
  core::CorrectorConfig config;
  config.genome_length = tc.genome_length;
  return config;
}

core::PipelineOptions pipeline_options(const TraceConfig& tc) {
  core::PipelineOptions options;
  options.threads = tc.workers;
  options.memory_budget_bytes = tc.budget_bytes;
  options.spill_dir = tc.dir + "/spill";
  return options;
}

/// Forward kmer codes of every read: the probe set for lookup timings.
std::vector<seq::KmerCode> probe_codes(const std::vector<seq::Read>& reads,
                                       int k) {
  std::vector<seq::KmerCode> codes;
  for (const auto& r : reads) seq::extract_kmer_codes(r.bases, k, codes);
  return codes;
}

/// Nanoseconds per probe of KSpectrum::index_of_batch over `codes`,
/// timed on a second sweep so lazily mapped shards are already in.
double probe_ns(const kspec::KSpectrum& spectrum,
                const std::vector<seq::KmerCode>& codes) {
  std::vector<std::int64_t> out(4096);
  double t0 = 0.0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    t0 = mono_now();
    for (std::size_t i = 0; i < codes.size(); i += out.size()) {
      const std::size_t n = std::min(out.size(), codes.size() - i);
      spectrum.index_of_batch({codes.data() + i, n}, {out.data(), n});
    }
  }
  return (mono_now() - t0) * 1e9 / static_cast<double>(codes.size());
}

/// The per-layer numbers of one traced run, by metric name.
using Layers = std::map<std::string, double>;

/// The traced pipeline run: the file workload's pipeline with the
/// tracing decorator and traced streams. The same pipeline also runs
/// untraced just before and just after it, for trace.overhead_ratio.
/// Returns false when any output differs from the reference.
bool traced_pipeline(const TraceConfig& tc, Layers& m, Tracer& tracer) {
  const std::string in = tc.dir + "/reads.fastq";
  bool ok = true;
  double untraced_wall = 0.0;
  const auto untraced_run = [&] {
    const std::string out_path = tc.dir + "/trace_untraced.fastq";
    core::CorrectionPipeline pipeline(
        core::make_corrector(tc.method(), corrector_config(tc)),
        pipeline_options(tc));
    std::ofstream out(out_path, std::ios::binary);
    const double t0 = mono_now();
    pipeline.run([&] { return io::open_input_stream(in); }, out);
    out.close();
    untraced_wall += 0.5 * (mono_now() - t0);
    ok = ok && slurp(out_path) == tc.expect;
  };
  untraced_run();
  const std::string out_path = tc.dir + "/trace_traced.fastq";
  auto decorator = std::make_unique<TracingCorrector>(
      core::make_corrector(tc.method(), corrector_config(tc)), tracer);
  TracingCorrector* tracing = decorator.get();
  core::CorrectionPipeline pipeline(std::move(decorator),
                                    pipeline_options(tc));
  core::PipelineResult result;
  const double t0 = mono_now();
  {
    TracedOutput out(out_path, tracer);
    result = pipeline.run(
        [&]() -> std::unique_ptr<std::istream> {
          return std::make_unique<TracedInput>(in, tracer);
        },
        out);
    out.flush();
  }
  const double t1 = mono_now();
  untraced_run();
  // Everything before phase 1 was handed over: pass-1 parse + spectrum
  // count (streamed methods) or the buffered load (reptile).
  tracer.add("pipeline.pass1", -1, t0, tracing->build_started);
  ok = ok && slurp(out_path) == tc.expect;

  const auto& r = result.report;
  const auto& s2 = result.pass2_overlap;
  m["core.build_s"] = tracer.total("core.build");
  m["core.correct_busy_s"] = tracer.total("core.correct_batch");
  m["core.correct_reads_per_busy_s"] =
      static_cast<double>(r.reads) / m["core.correct_busy_s"];
  m["core.reads_changed"] = static_cast<double>(r.reads_changed);
  m["core.reads_failed"] = static_cast<double>(result.reads_failed);
  if (tc.method() == "sap") {
    m["sap.fixed_ratio"] =
        static_cast<double>(r.extra("reads_fixed")) /
        static_cast<double>(r.reads - r.extra("reads_clean"));
  } else {
    const auto hits = r.extra("tile_cache_hits");
    const auto lookups = hits + r.extra("tile_cache_misses");
    m["reptile.tile_cache_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  if (s2.workers > 0 && s2.elapsed_seconds > 0.0) {
    m["util.exec.worker_util"] =
        std::max(0.0, 1.0 - s2.worker_stall_seconds /
                                (s2.elapsed_seconds *
                                 static_cast<double>(s2.workers)));
  }
  m["util.exec.reader_stall_s"] =
      s2.reader_stall_seconds + result.pass1_overlap.reader_stall_seconds;
  m["util.exec.writer_stall_s"] = s2.writer_stall_seconds;
  m["util.exec.peak_buffered_reads"] =
      static_cast<double>(result.peak_buffered_reads);
  m["kspec.peak_tracked_mb"] =
      static_cast<double>(result.spectrum_peak_tracked_bytes) / (1 << 20);
  m["trace.wall_s"] = t1 - t0;
  m["trace.unexplained_s"] = tracer.uncovered(t0, t1);
  m["trace.overhead_ratio"] = (t1 - t0) / untraced_wall - 1.0;
  return ok;
}

/// Parses the input in read_batch calls, spanned as io.parse.
std::vector<std::vector<seq::Read>> parse_batches(const std::string& path,
                                                  std::size_t batch,
                                                  Tracer& tracer,
                                                  std::uint64_t* bytes) {
  std::vector<std::vector<seq::Read>> batches;
  io::FastqStreamReader reader(path);
  for (;;) {
    std::vector<seq::Read> b;
    Scoped span(tracer, "io.parse");
    if (reader.read_batch(b, batch) == 0) break;
    batches.push_back(std::move(b));
  }
  if (bytes != nullptr) *bytes = reader.bytes_consumed();
  return batches;
}

/// Serial pass 2 of the replay: correct_batch then write_fastq per
/// batch on one thread, into trace_replay.fastq. Returns the output.
std::string serial_pass2(const TraceConfig& tc,
                         const core::Corrector& corrector,
                         const std::vector<std::vector<seq::Read>>& batches,
                         Tracer& tracer, core::CorrectionReport& report,
                         std::vector<double>* batch_ms) {
  const std::string path = tc.dir + "/trace_replay.fastq";
  std::ofstream os(path, std::ios::binary);
  auto scratch = corrector.make_scratch();
  std::vector<seq::Read> out;
  for (const auto& b : batches) {
    out.clear();
    const double t0 = mono_now();
    {
      Scoped span(tracer, "replay.correct");
      corrector.correct_batch(b, out, report, scratch.get());
    }
    if (batch_ms != nullptr) batch_ms->push_back((mono_now() - t0) * 1e3);
    Scoped span(tracer, "io.write");
    io::write_fastq(os, std::span<const seq::Read>(out));
  }
  os.close();
  return slurp(path);
}

/// Serial replay of a streamed-spectrum (sap) workload with the same
/// public functions the pipeline calls: read_batch, then
/// ChunkedSpectrumBuilder add_read_batch / finish — or, under a memory
/// budget, flush_spill / finish_spilled into a ShardedIndexWriter and
/// SpectrumIndex::load — then build_from_spectrum and per-batch
/// correct_batch + write_fastq. For serve_sap the spectrum is persisted
/// with write_spectrum_index and reloaded the way the daemon loads it.
bool replay_streamed(const TraceConfig& tc, Layers& m, Tracer& tracer,
                     std::vector<double>* batch_ms) {
  const std::string in = tc.dir + "/reads.fastq";
  util::ThreadPool pool(1);
  auto corrector = core::make_corrector(tc.method(), corrector_config(tc));
  const int k = corrector->spectrum_k();
  std::uint64_t bytes = 0;
  auto batches = parse_batches(in, tc.batch, tracer, &bytes);
  double pass1_parse = tracer.total("io.parse");
  kspec::SpillOptions spill;
  spill.memory_budget_bytes = tc.budget_bytes;
  spill.spill_dir = tc.dir + "/spill";
  kspec::ChunkedSpectrumBuilder builder(
      k, corrector->spectrum_both_strands(),
      core::PipelineOptions{}.spectrum_batch_instances, &pool, spill);
  core::InputSummary input;
  for (const auto& b : batches) {
    Scoped span(tracer, "kspec.count");
    builder.add_read_batch(b);
    for (const auto& r : b) input.add(r);
  }
  index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = corrector->spectrum_both_strands();
  build.input_reads = input.reads;
  build.input_bases = input.bases;
  build.max_read_length = static_cast<std::uint32_t>(input.max_read_length);
  kspec::KSpectrum spectrum;
  std::optional<index::SpectrumIndex> sharded;
  const std::string index_path = tc.dir + "/trace_index.ngsx";
  // finish_spilled() resets the builder, so remember the path taken.
  const bool spilled = builder.spilled();
  if (spilled) {
    {
      Scoped span(tracer, "kspec.spill");
      builder.flush_spill();
    }
    m["kspec.spill_mb"] =
        static_cast<double>(builder.spill_bytes()) / (1 << 20);
    m["kspec.spill_bins"] =
        static_cast<double>(builder.spill_nonempty_bins());
    {
      index::ShardedIndexWriter writer(index_path, build,
                                       builder.spill_shard_bits(),
                                       builder.spill_nonempty_bins());
      Scoped span(tracer, "kspec.spill");
      builder.finish_spilled(
          [&](kspec::ChunkedSpectrumBuilder::SortedRun&& run) {
            Scoped write(tracer, "index.write_shard", span.id());
            writer.append_shard(run.prefix, std::move(run.codes),
                                std::move(run.counts));
          });
      Scoped write(tracer, "index.write");
      writer.finish();
    }
  } else {
    Scoped span(tracer, "kspec.count");
    spectrum = builder.finish();
  }
  if (spilled || tc.workload == "serve_sap") {
    if (!spilled) {
      Scoped span(tracer, "index.write");
      index::write_spectrum_index(index_path, spectrum, build);
    }
    {
      Scoped span(tracer, "index.load");
      sharded.emplace(index::SpectrumIndex::load(index_path));
    }
    {
      Scoped span(tracer, "index.verify");
      index::LoadOptions verify;
      verify.verify_checksums = true;
      verify.validate_payload = true;
      (void)index::SpectrumIndex::load(index_path, verify);
    }
    m["index.mb"] =
        static_cast<double>(std::filesystem::file_size(index_path)) /
        (1 << 20);
    m["index.shards"] = sharded->info().shard_count;
    m["kspec.distinct_kmers"] = static_cast<double>(sharded->info().distinct);
    m["kspec.instances"] =
        static_cast<double>(sharded->info().total_instances);
  } else {
    m["kspec.distinct_kmers"] = static_cast<double>(spectrum.size());
    m["kspec.instances"] = static_cast<double>(spectrum.total_instances());
  }
  const auto probes = probe_codes(batches.front(), k);
  if (spilled) {
    m["index.sharded_probe_ns"] = probe_ns(sharded->spectrum(), probes);
    // The same lookups against the monolithic in-memory spectrum.
    kspec::ChunkedSpectrumBuilder plain(k, corrector->spectrum_both_strands());
    for (const auto& b : batches) plain.add_read_batch(b);
    m["kspec.probe_ns"] = probe_ns(plain.finish(), probes);
  } else {
    m["kspec.probe_ns"] =
        probe_ns(sharded ? sharded->spectrum() : spectrum, probes);
  }
  {
    Scoped span(tracer, "replay.build");
    corrector->build_from_spectrum(
        sharded ? sharded->share_spectrum() : std::move(spectrum), input);
  }
  // Pass 2 parses the input again, like the pipeline's second pass.
  batches = parse_batches(in, tc.batch, tracer, nullptr);
  core::CorrectionReport report;
  const std::string out =
      serial_pass2(tc, *corrector, batches, tracer, report, batch_ms);
  if (tc.workload == "serve_sap") {
    m["core.build_s"] = tracer.total("replay.build");
    m["core.correct_busy_s"] = tracer.total("replay.correct");
    m["core.correct_reads_per_busy_s"] =
        static_cast<double>(report.reads) / m["core.correct_busy_s"];
    m["sap.fixed_ratio"] =
        static_cast<double>(report.extra("reads_fixed")) /
        static_cast<double>(report.reads - report.extra("reads_clean"));
  }
  m["io.parse_s"] = tracer.total("io.parse");
  m["io.parse_mb_per_s"] = static_cast<double>(bytes) / 1e6 / pass1_parse;
  m["io.write_s"] = tracer.total("io.write");
  m["kspec.count_s"] = tracer.total("kspec.count");
  m["kspec.spill_s"] =
      tracer.total("kspec.spill") - tracer.total("index.write_shard");
  m["index.write_s"] =
      tracer.total("index.write") + tracer.total("index.write_shard");
  m["index.load_s"] = tracer.total("index.load");
  m["index.verify_s"] = tracer.total("index.verify");
  std::filesystem::remove(index_path);
  return out == tc.expect;
}

/// Serial replay of Reptile's phase 1, one public call per step:
/// select_parameters, KSpectrum::build, the HammingGraph constructor
/// and TileTable::build. The corrector's own build then repeats them
/// internally and corrects serially, so the replay's output can be
/// checked against the reference.
bool replay_reptile(const TraceConfig& tc, Layers& m, Tracer& tracer) {
  const std::string in = tc.dir + "/reads.fastq";
  std::uint64_t bytes = 0;
  auto batches = parse_batches(in, tc.batch, tracer, &bytes);
  seq::ReadSet reads;
  for (const auto& b : batches) {
    reads.reads.insert(reads.reads.end(), b.begin(), b.end());
  }
  reptile::ReptileParams params;
  {
    Scoped span(tracer, "reptile.params");
    params = reptile::select_parameters(reads, tc.genome_length);
  }
  kspec::KSpectrum spectrum;
  {
    Scoped span(tracer, "reptile.spectrum");
    spectrum = kspec::KSpectrum::build(reads, params.k, true);
  }
  {
    Scoped span(tracer, "reptile.graph");
    kspec::HammingGraph graph(spectrum, params.d);
  }
  kspec::TileParams tile_params;
  tile_params.k = params.k;
  tile_params.overlap = params.overlap;
  tile_params.quality_cutoff = params.quality_cutoff;
  tile_params.both_strands = true;
  {
    Scoped span(tracer, "reptile.tiles");
    m["reptile.tiles"] = static_cast<double>(
        kspec::TileTable::build(reads, tile_params).size());
  }
  m["kspec.instances"] = static_cast<double>(spectrum.total_instances());
  m["kspec.distinct_kmers"] = static_cast<double>(spectrum.size());
  m["kspec.probe_ns"] =
      probe_ns(spectrum, probe_codes(batches.front(), params.k));
  auto corrector = core::make_corrector("reptile", corrector_config(tc));
  corrector->build(reads);
  core::CorrectionReport report;
  const std::string out =
      serial_pass2(tc, *corrector, batches, tracer, report, nullptr);
  m["io.parse_s"] = tracer.total("io.parse");
  m["io.parse_mb_per_s"] =
      static_cast<double>(bytes) / 1e6 / tracer.total("io.parse");
  m["io.write_s"] = tracer.total("io.write");
  m["reptile.params_s"] = tracer.total("reptile.params");
  m["reptile.spectrum_s"] = tracer.total("reptile.spectrum");
  m["reptile.graph_s"] = tracer.total("reptile.graph");
  m["reptile.tiles_s"] = tracer.total("reptile.tiles");
  m["kspec.count_s"] = m["reptile.spectrum_s"];
  return out == tc.expect;
}

/// The traced run of one workload. File workloads: the traced pipeline
/// (decorator + traced streams, against an untraced twin) and the
/// serial replay. serve_sap: the in-process half only — the replay
/// through write_spectrum_index / SpectrumIndex::load and per-batch
/// correct_batch at the served batch size; run.py adds the client-side
/// spans from `load --traced`.
int cmd_trace(const util::CliParser& cli) {
  TraceConfig tc;
  tc.workload = cli.get("workload");
  tc.dir = cli.get("dir");
  tc.expect = slurp(cli.get("expect"));
  tc.genome_length =
      static_cast<std::uint64_t>(cli.get_int("genome-length", 1000000));
  tc.workers = static_cast<std::size_t>(cli.get_int("workers", 2));
  tc.budget_bytes = static_cast<std::size_t>(cli.get_int("budget-mb", 0))
                    << 20;
  tc.batch = static_cast<std::size_t>(cli.get_int("batch", 4096));
  std::filesystem::create_directories(tc.dir + "/spill");

  Layers m;
  std::uint64_t attempted = 0, failed = 0;
  const auto check = [&](bool ok) {
    ++attempted;
    if (!ok) ++failed;
  };
  Tracer pipeline_tracer;
  if (tc.workload != "serve_sap") {
    check(traced_pipeline(tc, m, pipeline_tracer));
    pipeline_tracer.write(tc.dir + "/spans_pipeline.jsonl", 0.0);
  }
  Tracer replay_tracer;
  std::vector<double> batch_ms;
  const double t0 = mono_now();
  if (tc.workload == "correct_reptile") {
    check(replay_reptile(tc, m, replay_tracer));
  } else {
    check(replay_streamed(tc, m, replay_tracer, &batch_ms));
  }
  m["trace.serial_wall_s"] = mono_now() - t0;
  replay_tracer.write(tc.dir + "/spans_replay.jsonl", t0);
  if (tc.workload == "serve_sap") {
    m["core.batch_correct_ms"] = median(batch_ms);
  }

  JsonObject metrics;
  for (const auto& [name, value] : m) metrics.num(name, value);
  std::cout << JsonObject()
                   .num("attempted", attempted)
                   .num("failed", failed)
                   .raw("metrics", metrics.dump())
                   .dump()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness "
                 "gen|eval|info|hello|load|trace [--option value ...] | "
                 "exec -- PROGRAM [ARGS...]\n";
    return 2;
  }
  const std::string command = argv[1];
  if (command == "exec") {
    if (argc < 4 || std::string(argv[2]) != "--") {
      std::cerr << "usage: perfbench_harness exec -- PROGRAM [ARGS...]\n";
      return 2;
    }
    try {
      return cmd_exec(argv + 3);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_harness exec: " << e.what() << "\n";
      return 1;
    }
  }
  util::CliParser cli("perfbench_harness " + command, "benchmark harness");
  for (const char* name :
       {"seed", "dir", "scale", "reads", "truth", "corrected", "socket",
        "timeout", "genome-length", "connections", "window", "batch",
        "seconds", "traced", "expect", "spans", "workload", "workers",
        "budget-mb"}) {
    cli.add_option(name, "", true, "");
  }
  if (!cli.parse(argc - 1, argv + 1)) {
    std::cerr << cli.error() << "\n";
    return 2;
  }
  try {
    if (command == "gen") return cmd_gen(cli);
    if (command == "eval") return cmd_eval(cli);
    if (command == "info") return cmd_info(cli);
    if (command == "hello") return cmd_hello(cli);
    if (command == "load") return cmd_load(cli);
    if (command == "trace") return cmd_trace(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_harness: unknown command '" << command << "'\n";
  return 2;
}
