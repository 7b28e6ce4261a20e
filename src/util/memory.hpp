#pragma once
// Peak-RSS reporting for the memory columns of Tables 2.3 and 3.4, and
// the one call that hands freed heap pages back at a phase boundary.

#include <cstdint>

namespace ngs::util {

/// Peak resident set size of this process in bytes (from
/// /proc/self/status VmHWM); returns 0 if unavailable.
std::uint64_t peak_rss_bytes();

/// Returns the heap pages the allocator holds free to the operating
/// system (glibc's malloc_trim(0); a no-op elsewhere), so the resident
/// set drops to what is still live. For a phase boundary after which a
/// large transient working set is gone for good; it changes no
/// allocator setting.
void release_free_memory() noexcept;

/// Convenience: bytes -> fractional gigabytes.
double to_gib(std::uint64_t bytes);

}  // namespace ngs::util
