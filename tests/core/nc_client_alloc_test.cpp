// Allocation audit of NCClient::observe: once a client's link rows and
// heuristic windows exist, an observation allocates nothing. This binary
// replaces the global operator new with a counting one, which is why the
// test lives in a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "core/nc_client.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace nc
