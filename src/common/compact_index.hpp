// Compact open-addressed u32 -> u32 slot index.
//
// The dense remote-id -> slot arrays that replaced hash maps on the hot
// paths (PR 4/5) grow to the LARGEST key ever seen: NCClient's slot_of_
// settled at ~n entries per client, so aggregate index memory across n
// clients was O(n^2) even though live link state is bounded by
// max_tracked_links. CompactSlotIndex is the large-n replacement: memory is
// O(live entries), not O(key space), while a lookup stays a couple of cache
// probes on a flat array.
//
// Layout: one flat power-of-two array of (key, value) pairs packed into a
// u64 each, linear probing from a multiplicative hash of the key. Deletion
// is backward-shift (Knuth 6.4 algorithm R): the probe chain after the hole
// is compacted in place, so the table carries no tombstones and churn-heavy
// workloads (eviction unhooking one entry per new contact, forever) never
// degrade probe lengths. Growth doubles the array when occupancy crosses
// 7/10 — bounded callers (NCClient with max_tracked_links = k) therefore
// top out at the first power of two past 10k/7, i.e. O(k) bytes.
//
// Determinism: the table is a pure map — iteration order is never exposed,
// so physical layout can never leak into simulation results.
//
// Not thread-safe; every index is owned by one client or one shard,
// matching the engines' owner-only-writes discipline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace nc {

class CompactSlotIndex {
 public:
  CompactSlotIndex() = default;

  /// Current value for `key`, if present.
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint32_t key) const noexcept {
    if (size_ == 0) return std::nullopt;
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = bucket_of(key, mask);; i = (i + 1) & mask) {
      const std::uint64_t e = entries_[i];
      if (e == kEmpty) return std::nullopt;
      if (key_of(e) == key) return value_of(e);
    }
  }

  /// Starts loading the bucket a lookup of `key` probes first (a hint).
  void prefetch(std::uint32_t key) const noexcept {
    if (!entries_.empty())
      __builtin_prefetch(&entries_[bucket_of(key, entries_.size() - 1)]);
  }

  /// Inserts `key -> value`, or overwrites the value of an existing key.
  void insert(std::uint32_t key, std::uint32_t value) {
    NC_ASSERT(key != kEmptyKey);
    if ((size_ + 1) * 10 > entries_.size() * 7) grow();
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = bucket_of(key, mask);; i = (i + 1) & mask) {
      const std::uint64_t e = entries_[i];
      if (e == kEmpty) {
        entries_[i] = pack(key, value);
        ++size_;
        return;
      }
      if (key_of(e) == key) {
        entries_[i] = pack(key, value);
        return;
      }
    }
  }

  /// Removes `key`; returns whether it was present. Backward-shift keeps the
  /// probe chains tombstone-free, so erase-heavy churn never slows lookups.
  bool erase(std::uint32_t key) noexcept {
    if (size_ == 0) return false;
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = bucket_of(key, mask);
    for (;; i = (i + 1) & mask) {
      const std::uint64_t e = entries_[i];
      if (e == kEmpty) return false;
      if (key_of(e) == key) break;
    }
    // Compact the chain after the hole: an entry moves into the hole iff its
    // home bucket lies at or before the hole along the probe path.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      const std::uint64_t e = entries_[j];
      if (e == kEmpty) break;
      const std::size_t home = bucket_of(key_of(e), mask);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        entries_[hole] = e;
        hole = j;
      }
    }
    entries_[hole] = kEmpty;
    --size_;
    return true;
  }

  /// Visits every live (key, value) pair in PHYSICAL table order — which is
  /// hash-layout order, never meaningful. Callers that feed simulation state
  /// must canonicalize (sort) what they collect, preserving the class
  /// contract that layout can never leak into results.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint64_t e : entries_) {
      if (e == kEmpty) continue;
      fn(key_of(e), value_of(e));
    }
  }

  /// Drops every entry, keeping the bucket array for reuse.
  void clear() noexcept {
    std::fill(entries_.begin(), entries_.end(), kEmpty);
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Physical buckets (power of two; 0 until the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept { return entries_.size(); }

  /// Heap bytes held by the bucket array.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return entries_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  /// The all-ones key is reserved as the empty marker's key half; node ids
  /// and dense indices never reach it.
  static constexpr std::uint32_t kEmptyKey = ~std::uint32_t{0};
  static constexpr std::size_t kInitialBuckets = 16;

  [[nodiscard]] static std::uint64_t pack(std::uint32_t key,
                                          std::uint32_t value) noexcept {
    return (static_cast<std::uint64_t>(key) << 32) | value;
  }
  [[nodiscard]] static std::uint32_t key_of(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e >> 32);
  }
  [[nodiscard]] static std::uint32_t value_of(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e);
  }
  /// Fibonacci-multiplicative hash: spreads the dense sequential ids every
  /// driver uses across the table without clustering.
  [[nodiscard]] static std::size_t bucket_of(std::uint32_t key,
                                             std::size_t mask) noexcept {
    return static_cast<std::size_t>(key * std::uint32_t{0x9E3779B9}) & mask;
  }

  void grow() {
    const std::size_t new_cap =
        entries_.empty() ? kInitialBuckets : entries_.size() * 2;
    std::vector<std::uint64_t> old = std::move(entries_);
    entries_.assign(new_cap, kEmpty);
    const std::size_t mask = new_cap - 1;
    for (const std::uint64_t e : old) {
      if (e == kEmpty) continue;
      for (std::size_t i = bucket_of(key_of(e), mask);; i = (i + 1) & mask) {
        if (entries_[i] == kEmpty) {
          entries_[i] = e;
          break;
        }
      }
    }
  }

  std::vector<std::uint64_t> entries_;
  std::size_t size_ = 0;
};

}  // namespace nc
