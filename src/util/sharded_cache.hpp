#pragma once
// ShardedCache: a concurrent, bounded-capacity memo cache from uint64
// keys to uint64 values, built for decision memoization on hot paths
// (Reptile's pass-2 tile decisions; any pure uint64 -> uint64 function).
//
// Design:
//  - N lock-striped shards (power of two), each an open-addressed slot
//    array with a bounded linear-probe window. A lookup or store takes
//    exactly one shard mutex; distinct keys hash to distinct shards with
//    high probability, so workers proceed contention-free in practice.
//  - Sized by use: each shard starts at one probe window and doubles,
//    under its own mutex, once half full or when a store finds its probe
//    window full, up to its share of the byte cap. Memory follows the
//    working set instead of the cap.
//  - Bounded capacity: at the cap, a store whose probe window is full
//    *deterministically* replaces the entry at the key's home slot, so
//    the resident set is a pure function of the store sequence. Below
//    the cap nothing is ever evicted.
//  - Counters: per-shard hit/miss/insert/evict tallies, aggregated by
//    stats() — observability for cache sizing (see --tile-cache-mb).
//
// Because callers memoize pure functions, an evicted or lost entry only
// costs a recomputation — results are identical for any thread count and
// any interleaving, which is what lets the correction pipeline share one
// cache across every worker while guaranteeing byte-identical output.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ngs::util {

class ShardedCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity_bytes` caps the slot storage (rounded down to a power of
  /// two per shard, minimum one probe window each). `shards` must be a
  /// power of two; 0 picks one based on hardware concurrency.
  explicit ShardedCache(std::size_t capacity_bytes,
                        std::size_t shards = 0) {
    std::size_t n = shards;
    if (n == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      n = 1;
      while (n < hw * 2 && n < 64) n <<= 1;
    }
    if ((n & (n - 1)) != 0 || n == 0) {
      std::size_t p = 1;
      while (p < n) p <<= 1;
      n = p;
    }
    const std::size_t total_slots = capacity_bytes / sizeof(Slot);
    std::size_t per_shard = kProbeWindow;
    while (per_shard * 2 * n <= total_slots) per_shard <<= 1;
    shard_bits_ = 0;
    while ((std::size_t{1} << shard_bits_) < n) ++shard_bits_;
    shards_ = std::make_unique<Shard[]>(n);
    num_shards_ = n;
    max_slots_per_shard_ = per_shard;
    for (std::size_t s = 0; s < n; ++s) {
      shards_[s].slots.assign(kProbeWindow, Slot{});
    }
  }

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// True (and sets `value`) when `key` is resident. Counts one hit or
  /// one miss. The key ~0 marks free slots, so it is never resident.
  bool lookup(std::uint64_t key, std::uint64_t& value) noexcept {
    const std::uint64_t h = mix(key);
    Shard& shard = shards_[h & (num_shards_ - 1)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::size_t mask = shard.slots.size() - 1;
    const std::size_t home = (h >> shard_bits_) & mask;
    for (std::size_t p = 0; p < kProbeWindow && key != kFree; ++p) {
      const Slot& slot = shard.slots[(home + p) & mask];
      if (slot.key == kFree) break;  // first free slot ends the chain
      if (slot.key == key) {
        value = slot.value;
        ++shard.stats.hits;
        return true;
      }
    }
    ++shard.stats.misses;
    return false;
  }

  /// Inserts or overwrites `key` (a store of ~0 is dropped). Below the
  /// cap a full probe window grows the shard; at the cap the entry at
  /// the key's home slot is evicted (deterministic in the store
  /// sequence).
  void store(std::uint64_t key, std::uint64_t value) {
    if (key == kFree) return;
    const std::uint64_t h = mix(key);
    Shard& shard = shards_[h & (num_shards_ - 1)];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (;;) {
      switch (place(shard, h, {key, value})) {
        case Placed::kOverwritten:
          return;
        case Placed::kInserted:
          ++shard.used;
          ++shard.stats.insertions;
          if (2 * shard.used > shard.slots.size()) grow(shard);
          return;
        case Placed::kWindowFull:
          if (shard.slots.size() < max_slots_per_shard_) {
            grow(shard);
            continue;
          }
          shard.slots[(h >> shard_bits_) & (shard.slots.size() - 1)] = {
              key, value};
          ++shard.stats.evictions;
          return;
      }
    }
  }

  Stats stats() const {
    Stats total;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      Shard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.insertions += shard.stats.insertions;
      total.evictions += shard.stats.evictions;
    }
    return total;
  }

  /// Entries resident now.
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      Shard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.used;
    }
    return n;
  }

  /// Bytes of slot storage allocated now: one probe window per shard at
  /// first, never more than capacity_bytes().
  std::size_t allocated_bytes() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      Shard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.slots.size();
    }
    return n * sizeof(Slot);
  }

  std::size_t num_shards() const noexcept { return num_shards_; }
  /// Slots the cache may grow to.
  std::size_t capacity() const noexcept {
    return num_shards_ * max_slots_per_shard_;
  }
  std::size_t capacity_bytes() const noexcept {
    return capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::size_t kProbeWindow = 16;
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kFree;
    std::uint64_t value = 0;
  };

  /// Shards are cache-line separated so one worker's lock traffic does
  /// not false-share a neighbor's.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;  // a power of two, at least kProbeWindow
    std::size_t used = 0;
    Stats stats;
  };

  enum class Placed { kInserted, kOverwritten, kWindowFull };

  /// Puts `entry` (whose key hashes to `h`) in the first free slot of its
  /// probe window, or over its own older entry.
  Placed place(Shard& shard, std::uint64_t h, const Slot& entry) const {
    const std::size_t mask = shard.slots.size() - 1;
    const std::size_t home = (h >> shard_bits_) & mask;
    for (std::size_t p = 0; p < kProbeWindow; ++p) {
      Slot& slot = shard.slots[(home + p) & mask];
      if (slot.key == kFree) {
        slot = entry;
        return Placed::kInserted;
      }
      if (slot.key == entry.key) {
        slot.value = entry.value;
        return Placed::kOverwritten;
      }
    }
    return Placed::kWindowFull;
  }

  /// Doubles the shard's table, and again while a rehashed entry finds
  /// its probe window full, up to the cap. An entry that still does not
  /// fit at the cap is evicted.
  void grow(Shard& shard) const {
    if (shard.slots.size() >= max_slots_per_shard_) return;
    const std::vector<Slot> old = std::move(shard.slots);
    for (std::size_t size = old.size() * 2;; size *= 2) {
      shard.slots.assign(size, Slot{});
      std::size_t lost = 0;
      for (const Slot& slot : old) {
        if (slot.key != kFree &&
            place(shard, mix(slot.key), slot) != Placed::kInserted) {
          ++lost;
        }
      }
      if (lost == 0 || size >= max_slots_per_shard_) {
        shard.used -= lost;
        shard.stats.evictions += lost;
        return;
      }
    }
  }

  static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  std::unique_ptr<Shard[]> shards_;
  std::size_t num_shards_ = 0;
  std::size_t max_slots_per_shard_ = 0;
  unsigned shard_bits_ = 0;
};

}  // namespace ngs::util
