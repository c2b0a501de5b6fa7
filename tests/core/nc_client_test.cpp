#include "core/nc_client.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nc {
namespace {

NCClientConfig basic_config() {
  NCClientConfig c;
  c.vivaldi.dim = 2;
  c.filter = FilterConfig::moving_percentile(4, 25.0);
  c.heuristic = HeuristicConfig::always();
  return c;
}

TEST(NCClient, RejectsSelfObservation) {
  NCClient c(1, basic_config());
  EXPECT_THROW(c.observe(1, Coordinate::origin(2), 1.0, 10.0, 0.0), CheckError);
}

TEST(NCClient, RejectsNonPositiveRtt) {
  NCClient c(1, basic_config());
  EXPECT_THROW(c.observe(2, Coordinate::origin(2), 1.0, 0.0, 0.0), CheckError);
}

TEST(NCClient, AppCoordinateSeededOnFirstUsableSample) {
  NCClient c(1, basic_config());
  const auto out = c.observe(2, Coordinate{Vec{50.0, 0.0}}, 0.5, 48.0, 0.0);
  EXPECT_TRUE(out.vivaldi_updated);
  EXPECT_TRUE(out.app_updated);
  EXPECT_EQ(c.application_coordinate(), c.system_coordinate());
  EXPECT_EQ(c.app_update_count(), 1u);
}

TEST(NCClient, FilterAbsorbsSamplesWhenNotPrimed) {
  NCClientConfig cfg = basic_config();
  cfg.filter = FilterConfig::moving_percentile(4, 25.0, /*min_samples=*/2);
  NCClient c(1, cfg);
  const auto out = c.observe(2, Coordinate{Vec{50.0, 0.0}}, 0.5, 30000.0, 0.0);
  EXPECT_FALSE(out.filtered_rtt_ms.has_value());
  EXPECT_FALSE(out.vivaldi_updated);
  EXPECT_FALSE(out.app_updated);
  EXPECT_EQ(c.absorbed_sample_count(), 1u);
  // Second sample primes the filter; MP(,25) of {30000, 40} is 40 — the
  // spike never reaches Vivaldi.
  const auto out2 = c.observe(2, Coordinate{Vec{50.0, 0.0}}, 0.5, 40.0, 1.0);
  ASSERT_TRUE(out2.filtered_rtt_ms.has_value());
  EXPECT_EQ(*out2.filtered_rtt_ms, 40.0);
}

TEST(NCClient, PerLinkFiltersAreIndependent) {
  NCClient c(1, basic_config());
  // Feed link 2 large values, link 3 small ones; each filter sees only its
  // own link's history.
  for (int i = 0; i < 4; ++i) {
    c.observe(2, Coordinate{Vec{100.0, 0.0}}, 0.5, 200.0 + i, static_cast<double>(i));
    c.observe(3, Coordinate{Vec{-10.0, 0.0}}, 0.5, 10.0 + i, static_cast<double>(i));
  }
  const auto out2 = c.observe(2, Coordinate{Vec{100.0, 0.0}}, 0.5, 500.0, 10.0);
  const auto out3 = c.observe(3, Coordinate{Vec{-10.0, 0.0}}, 0.5, 500.0, 10.0);
  EXPECT_EQ(*out2.filtered_rtt_ms, 201.0);  // min of {201,202,203,500}
  EXPECT_EQ(*out3.filtered_rtt_ms, 11.0);   // min of {11,12,13,500}
  EXPECT_EQ(c.tracked_link_count(), 2u);
}

TEST(NCClient, NearestNeighborTracksLowestFilteredRtt) {
  NCClient c(1, basic_config());
  c.observe(2, Coordinate{Vec{100.0, 0.0}}, 0.5, 100.0, 0.0);
  EXPECT_EQ(c.nearest_neighbor(), 2);
  c.observe(3, Coordinate{Vec{10.0, 0.0}}, 0.5, 12.0, 1.0);
  EXPECT_EQ(c.nearest_neighbor(), 3);
  EXPECT_EQ(c.nearest_rtt_ms(), 12.0);
  // A slower link does not displace the nearest.
  c.observe(4, Coordinate{Vec{50.0, 0.0}}, 0.5, 55.0, 2.0);
  EXPECT_EQ(c.nearest_neighbor(), 3);
}

TEST(NCClient, NearestRefreshedWhenReobserved) {
  NCClient c(1, basic_config());
  c.observe(3, Coordinate{Vec{10.0, 0.0}}, 0.5, 12.0, 0.0);
  // The nearest link got slower; re-observation refreshes its value.
  for (int i = 0; i < 4; ++i)
    c.observe(3, Coordinate{Vec{10.0, 0.0}}, 0.5, 80.0, 1.0 + i);
  EXPECT_EQ(c.nearest_neighbor(), 3);
  EXPECT_EQ(c.nearest_rtt_ms(), 80.0);
}

TEST(NCClient, LinkEvictionCapsState) {
  NCClientConfig cfg = basic_config();
  cfg.max_tracked_links = 8;
  NCClient c(0, cfg);
  for (NodeId id = 1; id <= 20; ++id)
    c.observe(id, Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0, static_cast<double>(id));
  EXPECT_LE(c.tracked_link_count(), 8u);
  EXPECT_EQ(c.evicted_link_count(), 12u);
}

TEST(NCClient, UnboundedWhenCapIsZero) {
  NCClientConfig cfg = basic_config();
  cfg.max_tracked_links = 0;
  NCClient c(0, cfg);
  for (NodeId id = 1; id <= 50; ++id)
    c.observe(id, Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0, static_cast<double>(id));
  EXPECT_EQ(c.tracked_link_count(), 50u);
  EXPECT_EQ(c.evicted_link_count(), 0u);
}

// Eviction-policy pin: the slab's clock-hand (second-chance) eviction must
// match an independently coded reference that replays the same recorded
// contact sequence. The reference mirrors the documented policy — slots
// claimed LIFO from the free list (else appended), every touch sets the
// slot's reference bit, the sweep clears set bits and evicts the first
// clear one, the hand persists across evictions — with its own map and a
// fresh standalone filter per first contact, so a slab bookkeeping bug
// (hand reset, ref bit dropped, free-list reuse order, a reclaimed row not
// starting empty) diverges in filter outputs or eviction counts.
TEST(NCClient, SlabLinkStateMatchesClockHandReference) {
  NCClientConfig cfg = basic_config();
  cfg.filter = FilterConfig::moving_percentile(4, 25.0, /*min_samples=*/2);
  cfg.max_tracked_links = 6;  // small cap: plenty of evictions + re-contacts
  NCClient client(0, cfg);

  struct RefSlot {
    NodeId remote = kInvalidNode;  // kInvalidNode = free slot
    bool referenced = false;
    std::optional<LatencyFilter> filter;  // a fresh row per first contact
  };
  std::vector<RefSlot> slots;
  std::unordered_map<NodeId, std::size_t> slot_of;
  std::vector<std::size_t> free_slots;  // LIFO, like the slab's
  std::size_t hand = 0;
  std::size_t active = 0;
  std::uint64_t ref_evictions = 0;

  // A recorded observation sequence: 18 remotes cycling through a 6-slot
  // cap, pseudo-random RTTs, strictly increasing timestamps.
  Rng rng(1234);
  for (int i = 0; i < 600; ++i) {
    const auto remote = static_cast<NodeId>(1 + rng.uniform_int(18));
    const double rtt = 20.0 + rng.uniform(0.0, 200.0);
    const double now = static_cast<double>(i);

    auto it = slot_of.find(remote);
    std::size_t idx;
    if (it != slot_of.end()) {
      idx = it->second;
    } else {
      if (active >= cfg.max_tracked_links) {
        for (;;) {  // second-chance sweep from the persistent hand
          if (hand >= slots.size()) hand = 0;
          RefSlot& s = slots[hand++];
          if (s.remote == kInvalidNode) continue;
          if (s.referenced) {
            s.referenced = false;
            continue;
          }
          slot_of.erase(s.remote);
          s.remote = kInvalidNode;
          free_slots.push_back(hand - 1);
          --active;
          ++ref_evictions;
          break;
        }
      }
      if (!free_slots.empty()) {
        idx = free_slots.back();
        free_slots.pop_back();
      } else {
        slots.emplace_back();
        idx = slots.size() - 1;
      }
      slots[idx].remote = remote;
      slots[idx].filter.emplace(cfg.filter);
      slot_of[remote] = idx;
      ++active;
    }
    slots[idx].referenced = true;
    const std::optional<double> expected = slots[idx].filter->update(rtt);

    const auto out =
        client.observe(remote, Coordinate{Vec{50.0, 10.0}}, 0.5, rtt, now);
    ASSERT_EQ(out.filtered_rtt_ms, expected) << "observation " << i;
  }
  EXPECT_EQ(client.evicted_link_count(), ref_evictions);
  EXPECT_EQ(client.tracked_link_count(), active);
  EXPECT_GT(ref_evictions, 50u);  // the sequence actually exercised eviction
}

// Evicted rows are re-initialized in place: once the slab has grown to the
// link cap, a first contact claims a freed row and allocates nothing — every
// new remote lands in one of the rows the cap filled, and the byte count
// never changes, however many remotes churn through.
TEST(NCClient, EvictedSlotsAreReusedInPlace) {
  NCClientConfig cfg = basic_config();
  cfg.max_tracked_links = 6;
  NCClient c(0, cfg);
  NodeId next = 1;
  double t = 0.0;
  const auto contact_new_remote = [&] {
    c.observe(next, Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0 + next, t);
    ++next;
    t += 1.0;
  };
  for (int i = 0; i < 7; ++i) contact_new_remote();  // fill, then one eviction
  std::set<const void*> rows;
  for (NodeId id = 1; id < next; ++id)
    if (const void* row = c.link_row(id)) rows.insert(row);
  ASSERT_EQ(rows.size(), 6u);
  const std::size_t bytes = c.memory_bytes();
  const std::uint64_t evicted = c.evicted_link_count();
  for (int i = 0; i < 1200; ++i) {
    const NodeId remote = next;
    contact_new_remote();
    ASSERT_EQ(rows.count(c.link_row(remote)), 1u) << "first contact " << i;
    ASSERT_EQ(c.memory_bytes(), bytes) << "first contact " << i;
  }
  EXPECT_EQ(c.tracked_link_count(), 6u);
  EXPECT_EQ(c.evicted_link_count(), evicted + 1200u);
}

// The slab grows by whole chunks and never moves one: a row keeps its
// address, and its filter state, while thousands of first contacts grow
// the slab around it.
TEST(NCClient, LinkRowsStayPutAsTheSlabGrows) {
  NCClientConfig cfg = basic_config();
  cfg.max_tracked_links = 0;
  NCClient c(0, cfg);
  c.observe(1, Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0, 0.0);
  const void* row = c.link_row(1);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(c.link_row(2), nullptr);
  for (NodeId id = 2; id <= 5000; ++id) {
    c.observe(id, Coordinate{Vec{10.0, 0.0}}, 0.5, 50.0, static_cast<double>(id));
    ASSERT_EQ(c.link_row(1), row) << "after remote " << id;
  }
  // Remote 1's window still holds its one 10 ms sample.
  EXPECT_EQ(c.observe(1, Coordinate{Vec{10.0, 0.0}}, 0.5, 30.0, 5001.0)
                .filtered_rtt_ms,
            10.0);
}

// The paper's MP(4, 25) needs four samples per link; with every row live,
// the whole client — object, slab rows, index, free list, heuristic —
// costs at most 80 bytes per tracked link: a 56-byte row plus its share of
// the index.
TEST(NCClient, MemoryPerTrackedLinkWithinBound) {
  NCClientConfig cfg = basic_config();
  cfg.filter = FilterConfig::moving_percentile(4, 25.0);
  cfg.max_tracked_links = 4096;
  NCClient c(0, cfg);
  for (NodeId id = 1; id <= 4096; ++id)
    c.observe(id, Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0, static_cast<double>(id));
  ASSERT_EQ(c.tracked_link_count(), 4096u);
  EXPECT_LE(c.memory_bytes() / c.tracked_link_count(), 80u);
}

// The budget counts the heuristics' windows exactly: a windowed heuristic
// holds W_s (k points) and the W_c ring (k + 1 points), d doubles per point,
// plus RANKSUM's two k-entry distance reductions; APPLICATION/CENTROID holds
// a k-point ring. Beside the windows, the two clients differ only in the
// size of their heuristic objects.
TEST(NCClient, MemoryBytesCountHeuristicWindows) {
  const std::size_t k = 32;
  struct Case {
    HeuristicConfig heuristic;
    bool height;
    std::size_t bytes;
  };
  const std::size_t d2 = 2 * sizeof(double);  // one point, dim 2
  const std::size_t d3 = 3 * sizeof(double);  // one point, dim 2 plus height
  const Case cases[] = {
      {HeuristicConfig::energy(8.0, 32), false, (2 * k + 1) * d2},
      {HeuristicConfig::energy(8.0, 32), true, (2 * k + 1) * d3},
      {HeuristicConfig::relative(0.3, 32), false, (2 * k + 1) * d2},
      {HeuristicConfig::rank_sum(0.01, 32), false,
       (2 * k + 1) * d2 + 2 * k * sizeof(double)},
      {HeuristicConfig::application_centroid(4.0, 32), false, k * d2},
  };
  for (const Case& c : cases) {
    NCClientConfig plain = basic_config();
    plain.vivaldi.use_height = c.height;
    NCClientConfig windowed = plain;
    windowed.heuristic = c.heuristic;
    NCClient a(1, plain);
    NCClient b(1, windowed);
    const Coordinate remote = c.height ? Coordinate{Vec{50.0, 0.0}, 1.0}
                                       : Coordinate{Vec{50.0, 0.0}};
    for (int i = 0; i < 200; ++i) {
      const double t = static_cast<double>(i);
      const double rtt = 50.0 + (i % 7);
      a.observe(2, remote, 0.5, rtt, t);
      b.observe(2, remote, 0.5, rtt, t);
    }
    const std::size_t objects = c.heuristic.make()->object_bytes() -
                                plain.heuristic.make()->object_bytes();
    EXPECT_EQ(b.memory_bytes(), a.memory_bytes() + objects + c.bytes)
        << c.heuristic.name();
  }
}

// A height is embedded as one more window component, so dim + 1 must fit in
// kMaxDim; the client refuses such a config when it is built, not at its
// second observation (inside an engine, from a shard worker mid-run).
TEST(NCClient, RejectsCoordinateTooWideToEmbed) {
  NCClientConfig cfg = basic_config();
  cfg.heuristic = HeuristicConfig::energy(8.0, 4);
  cfg.vivaldi.dim = kMaxDim;
  cfg.vivaldi.use_height = true;
  EXPECT_THROW(NCClient(1, cfg), CheckError);

  cfg.vivaldi.dim = kMaxDim - 1;
  NCClient c(1, cfg);
  const Coordinate remote{Vec::zero(kMaxDim - 1), 1.0};
  for (int i = 0; i < 8; ++i)
    c.observe(2, remote, 0.5, 20.0 + i, static_cast<double>(i));
  EXPECT_EQ(c.application_coordinate().dim(), kMaxDim - 1);
}

// An unusable filter config fails when the client is built, not at its
// first observation (inside an engine that would be a shard worker,
// mid-run).
TEST(NCClient, RejectsBadFilterConfigAtConstruction) {
  const FilterConfig bad[] = {
      FilterConfig::moving_percentile(0, 25.0),
      FilterConfig::moving_percentile(4, 101.0),
      FilterConfig::moving_percentile(4, 25.0, 5),
      FilterConfig::ewma(0.0),
      FilterConfig::ewma(1.5),
      FilterConfig::threshold(0.0),
  };
  for (const FilterConfig& f : bad) {
    NCClientConfig cfg = basic_config();
    cfg.filter = f;
    EXPECT_THROW(NCClient(1, cfg), CheckError) << f.name();
  }
}

// Index-equivalence pin (PR 7): the compact open-addressed slot index must
// be observationally identical to the dense remote->slot+1 array it
// replaced. The reference below IS the old dense path — a vector grown
// geometrically to the largest remote id, slot+1 stored, zeroed on eviction
// — wired to the same clock-hand/free-list bookkeeping as the slab. Any
// divergence (a lost entry, a stale slot surviving eviction, a wrong slot
// returned after backward-shift) shows up as a filter-output or
// eviction-count mismatch.
TEST(NCClient, CompactIndexMatchesDenseIndexReference) {
  NCClientConfig cfg = basic_config();
  cfg.filter = FilterConfig::moving_percentile(4, 25.0, /*min_samples=*/2);
  cfg.max_tracked_links = 16;
  NCClient client(0, cfg);

  struct RefSlot {
    NodeId remote = kInvalidNode;
    bool referenced = false;
    std::optional<LatencyFilter> filter;  // a fresh row per first contact
  };
  std::vector<RefSlot> slots;
  std::vector<std::uint32_t> dense_slot_of;  // remote id -> slot + 1
  std::vector<std::size_t> free_slots;
  std::size_t hand = 0;
  std::size_t active = 0;
  std::uint64_t ref_evictions = 0;

  // Sparse ids across a wide range force plenty of hash collisions and
  // backward-shift chains in the compact table, while re-contact after
  // eviction exercises erase-then-reinsert of the same key.
  Rng rng(777);
  for (int i = 0; i < 4000; ++i) {
    const auto remote =
        static_cast<NodeId>(1 + (rng.uniform_int(48) * 100003) % 1000000);
    const double rtt = 20.0 + rng.uniform(0.0, 200.0);
    const double now = static_cast<double>(i);

    const auto rid = static_cast<std::size_t>(remote);
    if (rid >= dense_slot_of.size())
      dense_slot_of.resize(std::max(rid + 1, dense_slot_of.size() * 2), 0);
    std::size_t idx;
    if (dense_slot_of[rid] != 0) {
      idx = dense_slot_of[rid] - 1;
    } else {
      if (active >= cfg.max_tracked_links) {
        for (;;) {
          if (hand >= slots.size()) hand = 0;
          RefSlot& s = slots[hand++];
          if (s.remote == kInvalidNode) continue;
          if (s.referenced) {
            s.referenced = false;
            continue;
          }
          dense_slot_of[static_cast<std::size_t>(s.remote)] = 0;
          s.remote = kInvalidNode;
          free_slots.push_back(hand - 1);
          --active;
          ++ref_evictions;
          break;
        }
      }
      if (!free_slots.empty()) {
        idx = free_slots.back();
        free_slots.pop_back();
      } else {
        slots.emplace_back();
        idx = slots.size() - 1;
      }
      slots[idx].remote = remote;
      slots[idx].filter.emplace(cfg.filter);
      dense_slot_of[rid] = static_cast<std::uint32_t>(idx) + 1;
      ++active;
    }
    slots[idx].referenced = true;
    const std::optional<double> expected = slots[idx].filter->update(rtt);

    const auto out =
        client.observe(remote, Coordinate{Vec{50.0, 10.0}}, 0.5, rtt, now);
    ASSERT_EQ(out.filtered_rtt_ms, expected) << "observation " << i;
    ASSERT_EQ(client.evicted_link_count(), ref_evictions) << "observation " << i;
  }
  EXPECT_EQ(client.tracked_link_count(), active);
  EXPECT_GT(ref_evictions, 500u);  // churn actually hammered the index
}

// The O(n^2) -> O(n*k) win itself: per-client memory must depend on the
// link cap, never on the largest remote id seen. Under the old dense index
// the huge-id client below would carry ~4 MB of index alone.
TEST(NCClient, MemoryBoundedByTrackedLinksNotByRemoteIdRange) {
  NCClientConfig cfg = basic_config();
  cfg.max_tracked_links = 32;
  NCClient small_ids(0, cfg);
  NCClient huge_ids(0, cfg);
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>(i);
    small_ids.observe(static_cast<NodeId>(1 + i % 64),
                      Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0, t);
    huge_ids.observe(static_cast<NodeId>(1000000 + (i % 64) * 15485863),
                     Coordinate{Vec{10.0, 0.0}}, 0.5, 10.0, t);
  }
  EXPECT_EQ(small_ids.tracked_link_count(), 32u);
  EXPECT_EQ(huge_ids.tracked_link_count(), 32u);
  // Same live-state shape => same memory, regardless of id magnitude.
  EXPECT_EQ(huge_ids.memory_bytes(), small_ids.memory_bytes());
  EXPECT_LT(huge_ids.memory_bytes(), 64u * 1024u);
}

TEST(NCClient, CountersAdvance) {
  NCClient c(1, basic_config());
  for (int i = 0; i < 10; ++i)
    c.observe(2, Coordinate{Vec{50.0, 0.0}}, 0.5, 50.0, static_cast<double>(i));
  EXPECT_EQ(c.observation_count(), 10u);
  EXPECT_GE(c.app_update_count(), 1u);
}

TEST(NCClient, TwoClientsConvergeThroughPublicApi) {
  NCClientConfig cfg = basic_config();
  NCClient a(1, cfg);
  NCClient b(2, cfg);
  for (int i = 0; i < 300; ++i) {
    const double t = static_cast<double>(i);
    a.observe(2, b.system_coordinate(), b.error_estimate(), 60.0, t);
    b.observe(1, a.system_coordinate(), a.error_estimate(), 60.0, t);
  }
  EXPECT_NEAR(a.system_coordinate().distance_to(b.system_coordinate()), 60.0, 3.0);
  EXPECT_GT(a.confidence(), 0.9);
}

TEST(NCClient, EnergyHeuristicSuppressesAppUpdatesOnStableStream) {
  NCClientConfig cfg = basic_config();
  cfg.heuristic = HeuristicConfig::energy(8.0, 16);
  NCClient a(1, cfg);
  NCClient b(2, cfg);
  Rng rng(61);
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>(i);
    const double rtt = 60.0 * rng.lognormal(0.0, 0.03);
    a.observe(2, b.system_coordinate(), b.error_estimate(), rtt, t);
    b.observe(1, a.system_coordinate(), a.error_estimate(), rtt, t);
  }
  // System coordinates keep jittering, application coordinates barely move.
  EXPECT_LT(a.app_update_count(), 20u);
  EXPECT_EQ(a.observation_count(), 500u);
}

TEST(NCClient, AppDisplacementReportedOnUpdate) {
  NCClientConfig cfg = basic_config();
  cfg.heuristic = HeuristicConfig::application(1.0);
  NCClient a(1, cfg);
  // The remote advertises (100, 0) but the measured RTT is only 50: the
  // spring is over-stretched, so the system coordinate keeps moving toward
  // the remote and the APPLICATION heuristic fires repeatedly.
  a.observe(2, Coordinate{Vec{100.0, 0.0}}, 0.1, 50.0, 0.0);
  double total_disp = 0.0;
  for (int i = 1; i < 50; ++i) {
    const auto out =
        a.observe(2, Coordinate{Vec{100.0, 0.0}}, 0.1, 50.0, static_cast<double>(i));
    if (out.app_updated) {
      EXPECT_GT(out.app_displacement_ms, 1.0);  // tau
      total_disp += out.app_displacement_ms;
    }
  }
  EXPECT_GT(total_disp, 0.0);
}

}  // namespace
}  // namespace nc
