#pragma once
// The one SIMD level this code base has: scalar. Kept only for the
// benchmark harness (perfbench/harness.cpp), which records
// level_name(active()) in its provenance block; nothing in src/, tools/,
// tests/ or bench/ includes it.

namespace ngs::util::simd {

enum class Level : int { kScalar = 0 };

constexpr Level active() noexcept { return Level::kScalar; }

constexpr const char* level_name(Level) noexcept { return "scalar"; }

}  // namespace ngs::util::simd
