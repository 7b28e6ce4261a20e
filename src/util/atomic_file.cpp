#include "util/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define NGS_ATOMIC_FILE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ngs::util {

namespace {

/// Per-process counter so two AtomicFiles targeting the same path (or a
/// crashed predecessor's leftovers) never collide on the temp name.
std::atomic<std::uint64_t> g_tmp_seq{0};

std::string make_tmp_path(const std::string& target) {
  std::string tmp = target;
  tmp += ".tmp.";
#if NGS_ATOMIC_FILE_POSIX
  tmp += std::to_string(static_cast<long>(::getpid()));
  tmp += '.';
#endif
  tmp += std::to_string(g_tmp_seq.fetch_add(1, std::memory_order_relaxed));
  return tmp;
}

}  // namespace

void fsync_parent_dir(const std::string& path) noexcept {
#if NGS_ATOMIC_FILE_POSIX
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

AtomicFile::AtomicFile(std::string target, AtomicFileOptions options)
    : target_(std::move(target)),
      tmp_(make_tmp_path(target_)),
      options_(options) {}

AtomicFile::~AtomicFile() {
  if (!committed_) abort();
}

void AtomicFile::ensure_open() {
  if (file_ != nullptr) return;
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": open failed: " + std::strerror(errno));
  }
}

void AtomicFile::write_through(
    const std::function<void(std::ostream&)>& fill) {
  std::ofstream os(tmp_);
  if (!os) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": open failed: " + std::strerror(errno));
  }
  fill(os);
  os.close();
  if (!os) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": write failed");
  }
}

void AtomicFile::write(const void* data, std::size_t n) {
  if (n == 0) return;
  ensure_open();
  if (std::fwrite(data, 1, n, file_) != n) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": write failed: " + std::strerror(errno));
  }
  offset_ += n;
}

void AtomicFile::write_at(std::uint64_t offset, const void* data,
                          std::size_t n) {
  if (n == 0) return;
  ensure_open();
  if (offset + n > offset_) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": write_at past the sequentially written extent");
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(data, 1, n, file_) != n ||
      std::fseek(file_, static_cast<long>(offset_), SEEK_SET) != 0) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": positioned write failed: " + std::strerror(errno));
  }
}

void AtomicFile::flush() {
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0) {
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": flush failed: " + std::strerror(errno));
  }
}

void AtomicFile::commit() {
  if (committed_) return;
  if (file_ != nullptr) {
    flush();
#if NGS_ATOMIC_FILE_POSIX
    if (options_.fsync_file && ::fsync(::fileno(file_)) != 0) {
      throw Error(ErrorKind::kIo, options_.error_site,
                  target_ + ": fsync failed: " + std::strerror(errno));
    }
#endif
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
      throw Error(ErrorKind::kIo, options_.error_site,
                  target_ + ": close failed: " + std::strerror(errno));
    }
  }
#if !NGS_ATOMIC_FILE_POSIX
  // Non-POSIX rename does not replace an existing target.
  std::remove(target_.c_str());
#endif
  if (std::rename(tmp_.c_str(), target_.c_str()) != 0) {
    const std::string msg = std::strerror(errno);
    std::remove(tmp_.c_str());
    throw Error(ErrorKind::kIo, options_.error_site,
                target_ + ": rename failed: " + msg);
  }
  committed_ = true;
  if (options_.fsync_dir) fsync_parent_dir(target_);
}

void AtomicFile::abort() noexcept {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!committed_) std::remove(tmp_.c_str());
}

}  // namespace ngs::util
