#pragma once
// Atomic file replacement shared by every writer that must never leave
// a torn or partial target behind: the corrected-FASTQ output of the
// pipeline and the client, the FASTA/FASTQ file writers, the tools'
// TSV outputs, the spectrum-index writers, and the spill bins of the
// out-of-core spectrum build. The protocol is the classic
// tmp + (optional fsync) + rename: bytes go to a uniquely named sibling
// temp file, and only commit() renames it over the target, so readers
// observe either the old complete file or the new complete one. If the
// AtomicFile is destroyed before commit() — an exception unwound the
// writer — the temp file is unlinked and the target is untouched.
//
// Lives in ngs::util (below ngs::fault in the layering), so it performs
// no fault injection itself; callers fire their own sites before
// delegating the write (see index/spectrum_index.cpp, kspec/radix.cpp).

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <string>

namespace ngs::util {

struct AtomicFileOptions {
  /// fsync the temp file before the rename (durability of the content).
  bool fsync_file = false;
  /// fsync the parent directory after the rename (durability of the
  /// directory entry); best-effort, never fails the commit.
  bool fsync_dir = false;
  /// ngs::Error::site() attached to any failure this file raises.
  const char* error_site = "util.atomic_file";
};

class AtomicFile {
 public:
  /// Derives a unique sibling temp path for `target`; nothing touches
  /// the filesystem until the first write() or write_through(). Every
  /// error this file raises names `target`, not the temp path.
  explicit AtomicFile(std::string target, AtomicFileOptions options = {});
  ~AtomicFile();  // unlinks the temp file unless commit() succeeded
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  const std::string& target_path() const noexcept { return target_; }

  /// The temp file all writes land in until commit().
  const std::string& temp_path() const noexcept { return tmp_; }

  bool committed() const noexcept { return committed_; }

  /// Appends `n` bytes at the current sequential position, opening
  /// (creating/truncating) the temp file on first use. Throws
  /// ngs::Error(kIo, error_site) on failure.
  void write(const void* data, std::size_t n);

  /// The stream form of write(): opens the temp file as one
  /// std::ofstream, lets `fill` write it, and closes it; the caller then
  /// commits. Throws ngs::Error(kIo, error_site) naming the target when
  /// the temp file cannot be opened or written. Errors `fill` throws
  /// propagate unchanged.
  void write_through(const std::function<void(std::ostream&)>& fill);

  /// Overwrites `n` bytes at an absolute offset already covered by
  /// sequential writes (e.g. a header finalized after the payloads).
  /// Does not move the sequential position.
  void write_at(std::uint64_t offset, const void* data, std::size_t n);

  /// Bytes written sequentially so far (the logical file size).
  std::uint64_t offset() const noexcept { return offset_; }

  /// Flushes stdio buffers to the OS (no fsync). Throws on failure.
  void flush();

  /// Finalizes: flush (+ fsync per options), close, rename over the
  /// target (+ directory fsync per options). Throws ngs::Error(kIo) on
  /// failure, leaving the target untouched and the temp file removed.
  void commit();

  /// Closes and unlinks the temp file without touching the target.
  /// Idempotent; safe after commit() (no-op).
  void abort() noexcept;

 private:
  void ensure_open();

  std::string target_;
  std::string tmp_;
  AtomicFileOptions options_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;
  bool committed_ = false;
};

/// Best-effort fsync of the directory containing `path` (directory-entry
/// durability after a rename); a no-op where unsupported.
void fsync_parent_dir(const std::string& path) noexcept;

}  // namespace ngs::util
