#pragma once
// The typed failure model shared by every layer (io, index, core,
// mapreduce, tools). A bare std::runtime_error tells a caller nothing:
// the service and the tools need to distinguish "your input is
// malformed" (exit 3) from "the index file is corrupt" (exit 4) from
// "an invariant broke" (exit 1), and the retry machinery needs to know
// which failures are transient. ngs::Error carries:
//
//   kind      — the coarse taxonomy bucket (drives exit codes and
//               retry/skip policy);
//   site      — the stable failure-site name, matching the fault
//               injection catalog in src/fault/sites.hpp where the
//               failure is injectable (e.g. "io.fastq.read");
//   transient — whether a bounded retry is worth attempting
//               (fault::with_retry only retries transient errors).
//
// Subsystems with a finer-grained taxonomy keep it: index::IndexError
// derives from Error with kind kIndex and adds its own corruption-mode
// enum, so existing catch sites keep working while tools map every
// failure to the right exit code through one catch (const ngs::Error&).

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ngs {

enum class ErrorKind : std::uint8_t {
  kConfig,    // bad usage, flags, or spec strings        -> exit 2
  kIo,        // open/read/write/rename failure on input  -> exit 3
  kParse,     // malformed input record                   -> exit 3
  kIndex,     // spectrum-index load/integrity failure    -> exit 4
  kTask,      // a parallel task exhausted its retries    -> exit 1
  kInternal,  // broken invariant / unexpected state      -> exit 1
};

inline const char* error_kind_name(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kConfig: return "config";
    case ErrorKind::kIo: return "io";
    case ErrorKind::kParse: return "parse";
    case ErrorKind::kIndex: return "index";
    case ErrorKind::kTask: return "task";
    case ErrorKind::kInternal: return "internal";
  }
  return "unknown";
}

class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, std::string site, const std::string& what,
        bool transient = false)
      : std::runtime_error(what),
        site_(std::move(site)),
        kind_(kind),
        transient_(transient) {}

  ErrorKind kind() const noexcept { return kind_; }

  /// Stable failure-site name (see fault::sites), "" when not sited.
  const std::string& site() const noexcept { return site_; }

  /// True when a bounded retry may succeed (e.g. injected transient
  /// I/O); fault::with_retry keys off this.
  bool transient() const noexcept { return transient_; }

 private:
  std::string site_;
  ErrorKind kind_;
  bool transient_;
};

/// The tools' shared exit-code contract (fault::run_tool applies it;
/// tools_smoke.sh asserts it): usage/config = 2, input or parse error
/// = 3, index error = 4, everything else (task/internal) = 1.
inline int tool_exit_code(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kConfig: return 2;
    case ErrorKind::kIo:
    case ErrorKind::kParse: return 3;
    case ErrorKind::kIndex: return 4;
    case ErrorKind::kTask:
    case ErrorKind::kInternal: return 1;
  }
  return 1;
}

}  // namespace ngs
