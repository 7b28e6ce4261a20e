#include "util/memory.hpp"

#include <fstream>
#include <sstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace ngs::util {
namespace {

std::uint64_t read_status_field(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream ss(line.substr(std::string(field).size()));
      std::uint64_t kb = 0;
      ss >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t peak_rss_bytes() { return read_status_field("VmHWM:"); }

void release_free_memory() noexcept {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double to_gib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
}

}  // namespace ngs::util
