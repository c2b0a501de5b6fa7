// Allocation audit of NCClient: once a client's link rows and heuristic
// windows exist, an observation allocates nothing, and memory_bytes() is
// exactly what the client holds. This binary replaces the global operator
// new with a counting one that also tracks live bytes, which is why the
// tests live in a binary of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>

#include "common/rng.hpp"
#include "core/nc_client.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

// Each block carries its requested size just below the pointer handed out,
// in a header of kHeader bytes (or of the alignment, when that is larger),
// so a delete can take it back off the live count.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n, std::size_t header) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t total = (header + n + header - 1) / header * header;
  auto* base = static_cast<std::byte*>(header == kHeader
                                           ? std::malloc(total)
                                           : std::aligned_alloc(header, total));
  if (base == nullptr) throw std::bad_alloc();
  std::byte* const p = base + header;
  std::memcpy(p - sizeof n, &n, sizeof n);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return p;
}

void counted_free(void* ptr, std::size_t header) noexcept {
  if (ptr == nullptr) return;
  auto* const p = static_cast<std::byte*>(ptr);
  std::size_t n;
  std::memcpy(&n, p - sizeof n, sizeof n);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  std::free(p - header);
}

std::size_t header_for(std::align_val_t al) noexcept {
  return std::max(kHeader, static_cast<std::size_t>(al));
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, kHeader); }
void* operator new[](std::size_t n) { return counted_alloc(n, kHeader); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, header_for(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, header_for(al));
}
void operator delete(void* p) noexcept { counted_free(p, kHeader); }
void operator delete[](void* p) noexcept { counted_free(p, kHeader); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p, kHeader); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p, kHeader); }
void operator delete(void* p, std::align_val_t al) noexcept {
  counted_free(p, header_for(al));
}
void operator delete[](void* p, std::align_val_t al) noexcept {
  counted_free(p, header_for(al));
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  counted_free(p, header_for(al));
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  counted_free(p, header_for(al));
}

namespace nc {
namespace {

// A default client (3-D, MP(4, 25)) pinging 64 peers round robin, warmed up
// for 20k observations, then counted over the next 100k. The client's true
// position jumps every 5k observations, so the counted stretch crosses
// change points. RANKSUM is not covered: stats::rank_sum_test builds its
// merged sample on every call.
TEST(NCClient, ObserveAllocatesNothingOnceWarm) {
  const HeuristicConfig heuristics[] = {
      HeuristicConfig::energy(8.0, 32),
      HeuristicConfig::relative(0.3, 32),
      HeuristicConfig::application_centroid(4.0, 32),
  };
  for (const HeuristicConfig& heuristic : heuristics) {
    NCClientConfig cfg;
    cfg.heuristic = heuristic;
    NCClient client(0, cfg);
    Rng rng(17);
    Coordinate peers[64];
    for (Coordinate& p : peers) p = Coordinate{rng.unit_vector(3) * rng.uniform(10.0, 120.0)};

    std::uint64_t app_updates = 0;
    const auto drive = [&](int from, int count) {
      for (int i = from; i < from + count; ++i) {
        const int peer = i % 64;
        const Coordinate here{Vec{(i / 5000) % 2 == 0 ? 0.0 : 40.0, 0.0, 0.0}};
        const double rtt = here.distance_to(peers[peer]) + rng.uniform(1.0, 9.0);
        const auto out = client.observe(static_cast<NodeId>(peer + 1), peers[peer], 0.3,
                                        rtt, static_cast<double>(i));
        if (out.app_updated) ++app_updates;
      }
    };
    drive(0, 20000);
    const std::uint64_t before = g_allocations.load();
    const std::uint64_t updates_before = app_updates;
    drive(20000, 100000);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 0u) << heuristic.name();
    // The counted stretch published, so it crossed change points too.
    EXPECT_GT(app_updates, updates_before) << heuristic.name();
  }
}

// memory_bytes() must be exactly the client object plus the heap bytes it
// holds: slab chunks (the last one cut short at the cap), their table, the
// id index, the free list and the heuristic object with its windows. The
// counted new tracks every live byte, so a client built in place on the
// stack accounts for all that the live count gains. Checked after 1, 63,
// 64, 65, 620 and 5,000 first contacts and on either side of the first
// chunk boundary, and through eviction churn at a cap that is no multiple
// of a chunk.
TEST(NCClient, MemoryBytesMatchLiveHeap) {
  const HeuristicConfig heuristics[] = {
      HeuristicConfig::energy(8.0, 32),
      HeuristicConfig::relative(0.3, 32),
      HeuristicConfig::always(),
  };
  const Coordinate remote{Vec{30.0, 10.0, 0.0}};
  // ENERGY's freeze sums distances in per-thread scratch, which belongs to
  // the thread, not to any client: grow it to k = 32 before counting.
  {
    NCClient warm(0, NCClientConfig{});
    for (int i = 0; i < 200; ++i)
      warm.observe(1 + i % 8, remote, 0.3, 40.0 + i % 5, static_cast<double>(i));
  }
  for (const HeuristicConfig& heuristic : heuristics) {
    NCClientConfig cfg;
    cfg.heuristic = heuristic;
    constexpr int kChunk = static_cast<int>(NCClient::kChunkRows);
    for (const int contacts : {1, kChunk - 1, kChunk, kChunk + 1, 63, 64, 65, 620, 5000}) {
      std::optional<NCClient> client;
      const std::int64_t before = g_live_bytes.load();
      client.emplace(0, cfg);
      for (NodeId id = 1; id <= contacts; ++id)
        client->observe(id, remote, 0.3, 40.0 + id % 7, static_cast<double>(id));
      ASSERT_EQ(client->tracked_link_count(), static_cast<std::size_t>(contacts));
      EXPECT_EQ(client->memory_bytes(),
                sizeof(NCClient) + static_cast<std::size_t>(g_live_bytes.load() - before))
          << heuristic.name() << ", " << contacts << " first contacts";
    }

    cfg.max_tracked_links = 100;
    std::optional<NCClient> client;
    const std::int64_t before = g_live_bytes.load();
    client.emplace(0, cfg);
    for (NodeId id = 1; id <= 3000; ++id) {
      // Re-observe a few old remotes too, so the clock hand meets set bits.
      client->observe(id, remote, 0.3, 40.0 + id % 7, static_cast<double>(id));
      client->observe(1 + id % 150, remote, 0.3, 45.0, static_cast<double>(id));
      if (id % 97 != 0) continue;
      ASSERT_EQ(client->memory_bytes(),
                sizeof(NCClient) + static_cast<std::size_t>(g_live_bytes.load() - before))
          << heuristic.name() << ", churn at remote " << id;
    }
    EXPECT_EQ(client->tracked_link_count(), 100u);
    EXPECT_GT(client->evicted_link_count(), 2000u);
  }
}

}  // namespace
}  // namespace nc
