// ShardLinkStore: the per-row sparse store behind the engine's directed
// links, LatencyNetwork's undirected links and the IDMS delay matrix. This
// file pins the slot-level contract: value-initialized first touch, stable
// addresses, row hand-off, and memory bounded by the live cells.
#include "common/link_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace nc {
namespace {

struct Slot {
  std::uint64_t value = 0;
  bool touched = false;
};

using Row = std::vector<std::pair<std::uint32_t, Slot>>;

// A scattered touch pattern with revisits, mirrored into a std::map: first
// touch must read value-initialized, revisits must read back the write, and
// untouched cells must stay absent.
TEST(ShardLinkStore, SlotsMatchAMapReference) {
  constexpr std::size_t kRows = 16;
  constexpr std::size_t kCols = 64;
  ShardLinkStore<Slot> store(kRows, kCols);
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> reference;
  Rng rng(42);
  for (int step = 0; step < 2000; ++step) {
    const auto row = static_cast<std::size_t>(rng.next_u64() % kRows);
    const auto col = static_cast<std::size_t>(rng.next_u64() % kCols);
    Slot& s = store.at(row, col);
    if (!s.touched) {
      EXPECT_EQ(s.value, 0u) << "fresh slot not value-initialized";
      EXPECT_EQ(reference.count({row, col}), 0u);
      s.touched = true;
    }
    s.value = static_cast<std::uint64_t>(step);
    reference[{row, col}] = s.value;
  }
  EXPECT_EQ(store.size(), reference.size());
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c) {
      const Slot* s = store.try_at(r, c);
      const auto it = reference.find({r, c});
      if (it == reference.end()) {
        EXPECT_EQ(s, nullptr);
      } else {
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->value, it->second);
      }
    }
}

TEST(ShardLinkStore, SparseMemoryTracksTouchedLinksNotLogicalSpace) {
  // A 1000 x 100000 logical space (1e8 slots) where only 64 links per row
  // are ever touched: memory must scale with 64k touched slots, not 1e8.
  ShardLinkStore<Slot> store(1000, 100000);
  for (std::size_t r = 0; r < 1000; ++r)
    for (std::size_t k = 0; k < 64; ++k)
      store.at(r, (k * 1543) % 100000).value = r;
  EXPECT_EQ(store.size(), 64u * 1000u);
  // Slab + per-row tables; far under the ~1.6 GB a dense array would hold.
  EXPECT_LT(store.memory_bytes(), std::size_t{64} << 20);
}

TEST(ShardLinkStore, SparseReferencesStableWithinOneTouch) {
  ShardLinkStore<Slot> store(4, 1000);
  for (std::size_t c = 0; c < 1000; ++c) {
    Slot& s = store.at(2, c);
    s.value = c;  // written through the just-returned reference
  }
  for (std::size_t c = 0; c < 1000; ++c)
    EXPECT_EQ(store.at(2, c).value, c);
}

// The slab grows by whole blocks and never moves one, so an address handed
// out once survives any number of later first touches elsewhere.
TEST(ShardLinkStore, AddressesStayStableAcrossLaterFirstTouches) {
  ShardLinkStore<Slot> store(8, 100000);
  Slot* held = &store.at(0, 17);
  held->value = 99;
  for (std::size_t k = 0; k < 10000; ++k)
    store.at(1 + k % 7, k * 7 + 1).value = k;
  EXPECT_EQ(&store.at(0, 17), held);
  EXPECT_EQ(held->value, 99u);
  EXPECT_EQ(store.try_at(0, 17), held);
}

TEST(ShardLinkStore, ExtractInstallRoundTripsARowAndReusesItsSlots) {
  ShardLinkStore<Slot> from(4, 1000);
  ShardLinkStore<Slot> to(4, 1000);
  std::set<const Slot*> freed;
  for (std::size_t c : {900u, 3u, 512u, 40u}) {
    from.at(2, c).value = c + 1;
    freed.insert(from.try_at(2, c));
  }
  from.at(1, 7).value = 8;  // another row stays put

  Row row;
  from.extract_row(2, row, [](const Slot& s) { return s.value != 41; });
  // Sorted by col; the filtered-out cell (col 40) is released, not carried.
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].first, 3u);
  EXPECT_EQ(row[1].first, 512u);
  EXPECT_EQ(row[2].first, 900u);
  EXPECT_EQ(from.size(), 1u);
  EXPECT_EQ(from.try_at(2, 512), nullptr);
  EXPECT_EQ(from.try_at(1, 7)->value, 8u);

  to.install_row(2, row);
  EXPECT_EQ(to.size(), 3u);
  for (const auto& [col, slot] : row) EXPECT_EQ(to.try_at(2, col)->value, col + 1);
  EXPECT_EQ(to.try_at(2, 40), nullptr);

  // The next first touches reuse the freed slots, value-initialized again.
  for (std::size_t c = 0; c < 4; ++c) {
    const Slot& s = from.at(3, c);
    EXPECT_EQ(s.value, 0u);
    EXPECT_EQ(freed.count(&s), 1u) << "col " << c << " took a fresh slot";
  }
  EXPECT_EQ(from.size(), 5u);
}

// Every row crossing between two stores each round, as nodes do under
// rebalancing: memory settles within the first round trips (each store's
// slab and free list reach their peak) and stays within the live cells
// plus one row in flight, one partial block and the row tables.
TEST(ShardLinkStore, MemoryStaysBoundedByLiveCellsAcrossMigrations) {
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kCols = 4096;
  constexpr std::size_t kPerRow = 300;
  ShardLinkStore<Slot> a(kRows, kCols);
  ShardLinkStore<Slot> b(kRows, kCols);
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t k = 0; k < kPerRow; ++k)
      (r % 2 == 0 ? a : b).at(r, (k * 13 + r) % kCols).value = k;
  std::size_t settled = 0;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t r = 0; r < kRows; ++r) {
      // Column r is the row's first touch, so it marks where the row lives.
      const bool in_a = a.try_at(r, r) != nullptr;
      Row row;
      (in_a ? a : b).extract_row(r, row, [](const Slot&) { return true; });
      ASSERT_EQ(row.size(), kPerRow);
      (in_a ? b : a).install_row(r, row);
    }
    ASSERT_EQ(a.size(), kRows * kPerRow / 2);
    ASSERT_EQ(b.size(), kRows * kPerRow / 2);
    const std::size_t bytes = a.memory_bytes() + b.memory_bytes();
    if (round == 3) settled = bytes;
    if (round > 3) {
      EXPECT_LE(bytes, settled) << "round " << round;
    }
  }
  // Per store: a slot and a free-list entry for each live cell plus one
  // row in flight, one partial block, and at most every row's table (a
  // 300-entry row needs 512 buckets at load <= 0.7).
  const std::size_t peak_cells = kRows * kPerRow / 2 + kPerRow;
  const std::size_t bound =
      2 * (peak_cells * (sizeof(Slot) + sizeof(std::uint32_t)) +
           ShardLinkStore<Slot>::kBlockSlots * sizeof(Slot) +
           kRows * (sizeof(CompactSlotIndex) + 512 * sizeof(std::uint64_t)));
  EXPECT_LE(settled, bound);
}

}  // namespace
}  // namespace nc
