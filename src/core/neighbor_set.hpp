// Neighbor management for the sampling loop (paper Sec. II).
//
// Each node keeps a set of neighbors it samples in round-robin order and
// learns new neighbors through gossip (every sampling message carries one
// extra node address). Capacity is bounded; once full, new additions replace
// a uniformly random existing neighbor so long-running nodes keep mixing.
//
// Membership is a CompactSlotIndex (id -> round-robin slot) bounded by the
// set's capacity. The bitmap it replaces answered contains() in one word
// probe but cost n/8 bytes PER NODE — n^2/8 aggregate (125 GB at 1M nodes)
// for a set that never holds more than `capacity` members. The compact
// table keeps add() — one of the hottest calls in the simulators — at a
// couple of cache probes on a flat array while memory stays O(capacity):
// replacement erases the victim's entry (backward-shift, no tombstones), so
// the table can never outgrow the membership it indexes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/compact_index.hpp"
#include "common/rng.hpp"
#include "core/node_id.hpp"

namespace nc {

class NeighborSet {
 public:
  /// capacity >= 1; `seed` drives replacement choices deterministically.
  NeighborSet(std::size_t capacity, std::uint64_t seed);

  /// Adds a neighbor; returns true if the set changed. Adding a node already
  /// present is a no-op. The set does not know its owner's id: callers keep
  /// the owning node out themselves.
  bool add(NodeId id);

  [[nodiscard]] bool contains(NodeId id) const noexcept {
    return index_.find(static_cast<std::uint32_t>(id)).has_value();
  }
  /// Starts loading the index bucket add(id) / contains(id) probes first.
  void prefetch(NodeId id) const noexcept {
    index_.prefetch(static_cast<std::uint32_t>(id));
  }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Next neighbor in round-robin order; nullopt when empty.
  [[nodiscard]] std::optional<NodeId> next_round_robin();

  /// A uniformly random neighbor (for gossip payloads); nullopt when empty.
  [[nodiscard]] std::optional<NodeId> random_neighbor();

  /// All current neighbors, in round-robin order.
  [[nodiscard]] const std::vector<NodeId>& members() const noexcept { return order_; }

  /// Heap bytes held (order list + membership index): O(capacity), never a
  /// function of the id space — the bound the 1M-node budget relies on.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + order_.capacity() * sizeof(NodeId) +
           index_.memory_bytes();
  }

 private:
  std::size_t capacity_;
  std::vector<NodeId> order_;
  /// id -> round-robin slot, bounded by `capacity_` live entries.
  CompactSlotIndex index_;
  std::size_t cursor_ = 0;
  Rng rng_;
};

}  // namespace nc
