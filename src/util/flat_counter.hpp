#pragma once
// Two open-addressing (linear probing) hash tables over uint64 keys at
// load factor <= 1/2, with the all-ones key, which marks an empty slot,
// kept in a side flag:
// - FlatCounter maps keys to uint32 counts, for the q-gram counting inner
//   loops of SHREC and CLOSET where std::unordered_map's node
//   allocations dominate;
// - FlatSet holds keys alone in 8-byte slots, for membership tests that
//   must stay in cache (SAP's solid k-mers).

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace ngs::util {

namespace flat_detail {

inline constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

/// MurmurHash3's 64-bit finalizer: the home slot of a key is its mix
/// masked to the table size.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// The power-of-two slot count (at least 16) that holds expected_keys
/// at load factor <= 1/2.
inline std::size_t slots_for(std::size_t expected_keys) noexcept {
  std::size_t cap = 16;
  while (cap < expected_keys * 2) cap <<= 1;
  return cap;
}

}  // namespace flat_detail

class FlatCounter {
 public:
  /// Reserves capacity for ~expected_keys at load factor <= 0.5.
  explicit FlatCounter(std::size_t expected_keys = 1024) {
    slots_.assign(flat_detail::slots_for(expected_keys), Slot{});
    mask_ = slots_.size() - 1;
  }

  void add(std::uint64_t key, std::uint32_t delta = 1) {
    if (key == kEmpty) {
      sentinel_count_ += delta;
      sentinel_used_ = true;
      return;
    }
    Slot* s = &find_slot(key);
    if (s->key == kEmpty) {
      // Only a genuine insert can push the load factor over 1/2 —
      // updates to existing keys never rehash.
      if ((size_ + 1) * 2 > slots_.size()) {
        grow();
        s = &find_slot(key);
      }
      s->key = key;
      ++size_;
    }
    s->count += delta;
  }

  std::uint32_t count(std::uint64_t key) const {
    if (key == kEmpty) return sentinel_used_ ? sentinel_count_ : 0;
    const Slot& s = find_slot(key);
    return s.key == kEmpty ? 0 : s.count;
  }

  std::size_t distinct() const noexcept {
    return size_ + (sentinel_used_ ? 1 : 0);
  }

  /// Current slot-array size (for load-factor telemetry and tests).
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Visits every (key, count) pair in unspecified order.
  void for_each(const std::function<void(std::uint64_t, std::uint32_t)>& fn)
      const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.count);
    }
    if (sentinel_used_) fn(kEmpty, sentinel_count_);
  }

 private:
  static constexpr std::uint64_t kEmpty = flat_detail::kEmpty;

  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t count = 0;
  };

  const Slot& find_slot(std::uint64_t key) const {
    std::size_t i = flat_detail::mix(key) & mask_;
    while (slots_[i].key != kEmpty && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }

  Slot& find_slot(std::uint64_t key) {
    return const_cast<Slot&>(std::as_const(*this).find_slot(key));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      Slot& dst = find_slot(s.key);
      dst.key = s.key;
      dst.count = s.count;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t sentinel_count_ = 0;
  bool sentinel_used_ = false;
};

class FlatSet {
 public:
  /// Reserves capacity for ~expected_keys at load factor <= 0.5.
  explicit FlatSet(std::size_t expected_keys)
      : slots_(flat_detail::slots_for(expected_keys), kEmpty),
        mask_(slots_.size() - 1) {}

  void insert(std::uint64_t key) {
    if (key == kEmpty) {
      has_empty_key_ = true;
      return;
    }
    std::size_t i = find_slot(key);
    if (slots_[i] == key) return;
    if ((size_ + 1) * 2 > slots_.size()) {
      grow();
      i = find_slot(key);
    }
    slots_[i] = key;
    ++size_;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    return slots_[find_slot(key)] == key;
  }

  std::size_t size() const noexcept { return size_ + has_empty_key_; }

  /// Current slot-array size; the table holds capacity() * 8 bytes.
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = flat_detail::kEmpty;

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t find_slot(std::uint64_t key) const {
    std::size_t i = flat_detail::mix(key) & mask_;
    while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (const std::uint64_t key : old) {
      if (key != kEmpty) slots_[find_slot(key)] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // keys in slots_
  bool has_empty_key_ = false;
};

}  // namespace ngs::util
