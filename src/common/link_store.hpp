// ShardLinkStore: per-row sparse state for the links a run touches.
//
// Three tables hold state per pair of node ids: a shard's directed links
// (row = src), LatencyNetwork's undirected links (row = lower id) and the
// IDMS delay matrix (row = src). In every deployment a node measures a
// bounded set of peers — NeighborSet caps its contacts at
// `neighbor_capacity`, and a bounded replay reaches at most
// duration/interval round-robin partners — so each table holds state only
// for the links a run touches, never for all n² pairs.
//
// Layout: one CompactSlotIndex per row (col -> slot; an empty row costs
// 32 B) into a slab of fixed-size blocks. Memory is O(rows + touched
// links); a lookup is one or two cache probes plus the block indirection.
// The slab grows by whole blocks and never moves a block once allocated,
// so the reference at() returns stays valid across later first touches in
// any row — it dies only when its own row is extracted.
//
// Slots hand out value-initialized state on first touch, and
// extract_row's output is sorted by col, so neither the slot order nor the
// hash layout can leak into results.
//
// Not thread-safe; every store is owned by exactly one shard or one
// network.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/compact_index.hpp"

namespace nc {

template <typename T>
class ShardLinkStore {
 public:
  /// Slots per slab block: 44 KiB of the engine's 88-byte directed links
  /// (48 KiB of LatencyNetwork's 96-byte slots), so a store that holds a
  /// few links wastes at most one partial block.
  static constexpr std::size_t kBlockSlots = 512;

  ShardLinkStore() = default;

  ShardLinkStore(std::size_t rows, std::size_t cols)
      : cols_(cols), row_index_(rows) {
    NC_CHECK_MSG(cols_ <= std::numeric_limits<std::uint32_t>::max(),
                 "column space exceeds the compact-index key width");
  }

  /// The state at (row, col), created value-initialized on first touch.
  [[nodiscard]] T& at(std::size_t row, std::size_t col) {
    NC_ASSERT(row < row_index_.size() && col < cols_);
    CompactSlotIndex& index = row_index_[row];
    const auto key = static_cast<std::uint32_t>(col);
    if (const auto slot = index.find(key); slot.has_value())
      return slot_ref(*slot);
    const std::uint32_t slot = claim_slot();
    index.insert(key, slot);
    return slot_ref(slot);
  }

  /// Read-only probe: the slot's address, or nullptr when never touched.
  /// Never allocates, so query paths can probe without growing the store.
  [[nodiscard]] const T* try_at(std::size_t row, std::size_t col) const noexcept {
    NC_ASSERT(row < row_index_.size() && col < cols_);
    const auto slot = row_index_[row].find(static_cast<std::uint32_t>(col));
    return slot.has_value() ? &slot_ref(*slot) : nullptr;
  }

  /// Moves every live slot of `row` out (appended to `out` as (col, state),
  /// sorted by col) and resets the row to untouched, releasing its slots
  /// for reuse and its index table. `live(state)` filters which slots are
  /// worth carrying; dead slots are released either way. Ownership
  /// migration packs a node's row this way.
  template <typename Live>
  void extract_row(std::size_t row, std::vector<std::pair<std::uint32_t, T>>& out,
                   Live&& live) {
    NC_ASSERT(row < row_index_.size());
    const std::size_t start = out.size();
    row_index_[row].for_each([&](std::uint32_t col, std::uint32_t slot) {
      T& state = slot_ref(slot);
      if (live(state)) out.emplace_back(col, std::move(state));
      state = T();
      free_slots_.push_back(slot);
    });
    row_index_[row] = CompactSlotIndex();
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  /// Installs a packed row from extract_row into (an untouched) `row`.
  void install_row(std::size_t row,
                   const std::vector<std::pair<std::uint32_t, T>>& cells) {
    for (const auto& [col, state] : cells) at(row, col) = state;
  }

  /// Visits every live slot in physical order, which is never meaningful:
  /// callers may only fold it into order-free results (counts, sums).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const CompactSlotIndex& index : row_index_)
      index.for_each(
          [&](std::uint32_t, std::uint32_t slot) { fn(slot_ref(slot)); });
  }

  /// Live slots: touched and not released since.
  [[nodiscard]] std::size_t size() const noexcept {
    return next_slot_ - free_slots_.size();
  }

  /// Heap bytes held right now: slab blocks, the free list and every row's
  /// index table.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = blocks_.size() * kBlockSlots * sizeof(T) +
                        blocks_.capacity() * sizeof(std::unique_ptr<T[]>) +
                        free_slots_.capacity() * sizeof(std::uint32_t) +
                        row_index_.capacity() * sizeof(CompactSlotIndex);
    for (const CompactSlotIndex& index : row_index_) bytes += index.memory_bytes();
    return bytes;
  }

 private:
  [[nodiscard]] T& slot_ref(std::uint32_t slot) const noexcept {
    return blocks_[slot / kBlockSlots][slot % kBlockSlots];
  }

  /// A released slot first (migration churn must not leak slab capacity),
  /// else the next fresh one, allocating a block when the last is full.
  [[nodiscard]] std::uint32_t claim_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    NC_CHECK_MSG(next_slot_ < std::numeric_limits<std::uint32_t>::max(),
                 "link slab exceeds the compact-index value width");
    if (next_slot_ == blocks_.size() * kBlockSlots)
      blocks_.push_back(std::make_unique<T[]>(kBlockSlots));  // value-init
    return static_cast<std::uint32_t>(next_slot_++);
  }

  std::size_t cols_ = 0;
  std::vector<CompactSlotIndex> row_index_;
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t next_slot_ = 0;
  /// Slots released by extract_row, reused before the slab grows.
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace nc
