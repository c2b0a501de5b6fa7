#include "core/heuristics/windowed_heuristics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "stats/energy.hpp"

namespace nc {
namespace {

Coordinate at(double x, double y) { return Coordinate{Vec{x, y}}; }

// A threshold the statistic never exceeds: W_s stays frozen and W_c slides.
constexpr double kNeverFires = std::numeric_limits<double>::max();

TEST(WindowedHeuristic, RejectsBadParams) {
  EXPECT_THROW(EnergyHeuristic(0.0, 8), CheckError);
  EXPECT_THROW(EnergyHeuristic(8.0, 1), CheckError);
  EXPECT_THROW(RelativeHeuristic(0.0, 8), CheckError);
}

TEST(EnergyHeuristic, NotArmedUntilWindowFills) {
  EnergyHeuristic h(0.001, 4);
  Coordinate app = at(0, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(h.on_system_update({at(i * 10.0, 0), nullptr, 0.0}, app));
    EXPECT_FALSE(h.armed());
  }
  h.on_system_update({at(30, 0), nullptr, 0.0}, app);
  EXPECT_TRUE(h.armed());
}

TEST(EnergyHeuristic, StableStreamNeverFires) {
  EnergyHeuristic h(8.0, 16);
  Coordinate app = at(0, 0);
  Rng rng(51);
  for (int i = 0; i < 500; ++i) {
    const Coordinate sys = at(50.0 + rng.normal(0.0, 0.5), rng.normal(0.0, 0.5));
    ASSERT_FALSE(h.on_system_update({sys, nullptr, 0.0}, app));
  }
  EXPECT_EQ(h.change_points(), 0u);
  EXPECT_EQ(app, at(0, 0));  // untouched
}

TEST(EnergyHeuristic, DetectsShiftAndPublishesCentroid) {
  EnergyHeuristic h(8.0, 16);
  Coordinate app = at(0, 0);
  Rng rng(52);
  // Phase 1: stable near (0, 0).
  for (int i = 0; i < 64; ++i) {
    h.on_system_update({at(rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)), nullptr, 0.0},
                       app);
  }
  EXPECT_EQ(h.change_points(), 0u);
  // Phase 2: jump to (100, 0): must fire within ~window observations.
  bool fired = false;
  int steps = 0;
  for (; steps < 32 && !fired; ++steps) {
    fired = h.on_system_update(
        {at(100.0 + rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)), nullptr, 0.0}, app);
  }
  ASSERT_TRUE(fired);
  EXPECT_LE(steps, 32);
  EXPECT_EQ(h.change_points(), 1u);
  // The published coordinate is the centroid of the current window — a mix
  // of old and new positions. The statistic fires after only a few samples
  // at the new location, so the centroid has moved off the old cluster but
  // not yet reached the new one.
  EXPECT_GT(app.position()[0], 5.0);
  EXPECT_LT(app.position()[0], 100.0);
  // After the change point the windows restart.
  EXPECT_FALSE(h.armed());
}

TEST(EnergyHeuristic, HigherThresholdFiresLater) {
  Rng rng(53);
  std::vector<Coordinate> stream;
  for (int i = 0; i < 32; ++i)
    stream.push_back(at(rng.normal(0.0, 0.2), rng.normal(0.0, 0.2)));
  for (int i = 0; i < 64; ++i)
    stream.push_back(at(2.0 * i + rng.normal(0.0, 0.2), 0.0));  // ramp

  const auto first_fire = [&](double tau) {
    EnergyHeuristic h(tau, 16);
    Coordinate app = at(0, 0);
    for (std::size_t i = 0; i < stream.size(); ++i)
      if (h.on_system_update({stream[i], nullptr, 0.0}, app))
        return static_cast<int>(i);
    return -1;
  };
  const int lo = first_fire(2.0);
  const int hi = first_fire(64.0);
  ASSERT_NE(lo, -1);
  ASSERT_NE(hi, -1);
  EXPECT_LT(lo, hi);
}

TEST(RelativeHeuristic, RequiresNearestNeighbor) {
  RelativeHeuristic h(0.3, 4);
  Coordinate app = at(0, 0);
  // Without a nearest neighbor the test can never trigger.
  for (int i = 0; i < 50; ++i)
    ASSERT_FALSE(h.on_system_update({at(i * 50.0, 0), nullptr, 0.0}, app));
}

TEST(RelativeHeuristic, FiresWhenMovementExceedsLocalScale) {
  RelativeHeuristic h(0.3, 8);
  Coordinate app = at(0, 0);
  const Coordinate nearest = at(0, 10);  // local scale ~10 ms
  Rng rng(54);
  // Stable phase.
  for (int i = 0; i < 16; ++i) {
    ASSERT_FALSE(h.on_system_update(
        {at(rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)), &nearest, 0.0}, app));
  }
  // Move by ~8 ms: 8 / 10 > 0.3 once the current centroid reflects it.
  bool fired = false;
  for (int i = 0; i < 16 && !fired; ++i) {
    fired = h.on_system_update(
        {at(8.0 + rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)), &nearest, 0.0}, app);
  }
  EXPECT_TRUE(fired);
  EXPECT_EQ(h.change_points(), 1u);
  EXPECT_GT(app.position()[0], 1.0);
}

TEST(RelativeHeuristic, SmallMovementRelativeToFarNeighborIgnored) {
  RelativeHeuristic h(0.3, 8);
  Coordinate app = at(0, 0);
  const Coordinate nearest = at(0, 500.0);  // very distant nearest neighbor
  Rng rng(55);
  for (int i = 0; i < 16; ++i)
    h.on_system_update({at(rng.normal(0.0, 0.1), 0), &nearest, 0.0}, app);
  // An 8 ms move is tiny relative to a 500 ms local scale.
  for (int i = 0; i < 32; ++i) {
    ASSERT_FALSE(h.on_system_update(
        {at(8.0 + rng.normal(0.0, 0.1), 0), &nearest, 0.0}, app));
  }
}

TEST(WindowedHeuristic, ResetClearsState) {
  EnergyHeuristic h(1.0, 4);
  Coordinate app = at(0, 0);
  // Stable stream: the windows fill and arm but never declare a change.
  for (int i = 0; i < 6; ++i) h.on_system_update({at(5, 5), nullptr, 0.0}, app);
  EXPECT_TRUE(h.armed());
  h.reset();
  EXPECT_FALSE(h.armed());
  EXPECT_EQ(h.change_points(), 0u);
}

TEST(WindowedHeuristic, CloneStartsFresh) {
  EnergyHeuristic h(8.0, 4);
  Coordinate app = at(0, 0);
  for (int i = 0; i < 4; ++i) h.on_system_update({at(0, 0), nullptr, 0.0}, app);
  EXPECT_TRUE(h.armed());
  const auto c = h.clone();
  auto* e = dynamic_cast<EnergyHeuristic*>(c.get());
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->armed());
  EXPECT_EQ(e->window(), 4);
}

// Regression pin for the O(k^2) -> O(k) energy-slide optimization: the
// ENERGY heuristic (the only energy path reachable from run_scenario, via
// NCClient) must make exactly the decisions a naive from-scratch
// energy_distance recomputation makes on every slide. The reference below
// replays the two-window protocol literally — fill both windows, freeze
// W_s, slide W_c, compare, restart on a change point.
TEST(EnergyHeuristic, MatchesNaiveEnergyRecomputationExactly) {
  const int k = 16;
  const double tau = 4.0;
  EnergyHeuristic h(tau, k);
  Coordinate app = at(0, 0);

  std::vector<Vec> start, current;  // naive reference state
  int naive_changes = 0;

  Rng rng(57);
  double cx = 0.0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 500 == 499) cx += rng.uniform(5.0, 60.0);  // occasional shifts
    const Coordinate sys =
        at(cx + rng.normal(0.0, 0.4), rng.normal(0.0, 0.4));
    const bool fired = h.on_system_update({sys, nullptr, 0.0}, app);

    // Naive replica of WindowedHeuristic + energy_distance.
    bool naive_fired = false;
    const Vec v = sys.as_vec();
    if (static_cast<int>(start.size()) < k) {
      start.push_back(v);
      current.push_back(v);
    } else {
      current.push_back(v);
      current.erase(current.begin());
      if (stats::energy_distance(start, current) > tau) {
        naive_fired = true;
        ++naive_changes;
        Vec sum = Vec::zero(v.dim());
        for (const Vec& c : current) sum += c;
        const Vec centroid = sum / static_cast<double>(current.size());
        ASSERT_NEAR(app.position().distance_to(centroid), 0.0, 1e-9)
            << "published centroid diverged at step " << i;
        start.clear();
        current.clear();
      }
    }
    ASSERT_EQ(fired, naive_fired) << "decision diverged at step " << i;
  }
  EXPECT_EQ(h.change_points(), static_cast<std::uint64_t>(naive_changes));
  EXPECT_GT(naive_changes, 3);  // the stream actually exercised change points
}

// IncrementalEnergy.* and IncrementalSlideProperty: EnergyHeuristic's
// incremental pair sums against the O(k^2) energy_distance reference.

TEST(IncrementalEnergy, MatchesNaiveAfterFill) {
  // The freeze sums S_AA, S_AB and S_BB from one distance triangle. A first
  // slide that re-adds the oldest point leaves W_c a rotation of W_s, so
  // the statistic is e(base, base) = 0 up to rounding.
  Rng rng(34);
  const int k = 8;
  EnergyHeuristic h(kNeverFires, k);
  Coordinate app = Coordinate::origin(3);
  std::vector<Vec> base;
  for (int i = 0; i < k; ++i) {
    base.push_back(Vec{rng.normal(0.0, 4.0), rng.normal(0.0, 4.0), rng.normal(0.0, 4.0)});
    h.on_system_update({Coordinate{base.back()}, nullptr, 0.0}, app);
  }
  ASSERT_TRUE(h.armed());
  h.on_system_update({Coordinate{base.front()}, nullptr, 0.0}, app);
  EXPECT_NEAR(h.last_statistic(), stats::energy_distance(base, base), 1e-9);
}

TEST(IncrementalEnergy, ValueRequiresBothWindows) {
  // The statistic is first evaluated when W_s is frozen and W_c has slid.
  EnergyHeuristic h(kNeverFires, 4);
  Coordinate app = at(0, 0);
  for (int i = 0; i < 4; ++i) {
    h.on_system_update({at(i, 1.0), nullptr, 0.0}, app);
    EXPECT_EQ(h.last_statistic(), 0.0);
  }
  h.on_system_update({at(40.0, 0.0), nullptr, 0.0}, app);
  EXPECT_GT(h.last_statistic(), 0.0);
}

TEST(IncrementalEnergy, ResetClearsEverything) {
  // reset() frees the windows and zeroes the sums: refilled, the heuristic
  // reproduces a fresh one's statistics bit for bit.
  Rng rng(35);
  std::vector<Coordinate> stream;
  for (int i = 0; i < 24; ++i)
    stream.push_back(at(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)));
  EnergyHeuristic used(kNeverFires, 4);
  EnergyHeuristic fresh(kNeverFires, 4);
  Coordinate app = at(0, 0);
  for (const Coordinate& c : stream) used.on_system_update({c, nullptr, 0.0}, app);
  used.reset();
  EXPECT_FALSE(used.armed());
  EXPECT_EQ(used.window_bytes(), 0u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    used.on_system_update({stream[i], nullptr, 0.0}, app);
    fresh.on_system_update({stream[i], nullptr, 0.0}, app);
    if (i >= 4) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(used.last_statistic()),
                std::bit_cast<std::uint64_t>(fresh.last_statistic()))
          << "update " << i;
    }
  }
}

// Property: after any sequence of slides, the incremental statistic matches
// a naive recomputation over the live window contents.
class IncrementalSlideProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSlideProperty, MatchesNaiveUnderSliding) {
  const int k = 16;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  EnergyHeuristic h(kNeverFires, k);
  Coordinate app = Coordinate::origin(3);
  std::vector<Vec> base;
  std::vector<Vec> window;  // mirror of W_c

  // Fill phase: W_s == W_c.
  for (int i = 0; i < k; ++i) {
    const Vec v = rng.unit_vector(3) * rng.uniform(0.0, 20.0);
    base.push_back(v);
    window.push_back(v);
    h.on_system_update({Coordinate{v}, nullptr, 0.0}, app);
  }

  // Slide 200 elements with a drifting distribution.
  Vec drift = Vec::zero(3);
  for (int i = 0; i < 200; ++i) {
    drift += rng.unit_vector(3) * 0.3;
    const Vec v = drift + rng.unit_vector(3) * rng.uniform(0.0, 5.0);
    h.on_system_update({Coordinate{v}, nullptr, 0.0}, app);
    window.push_back(v);
    window.erase(window.begin());

    if (i % 20 == 0) {
      const double naive = stats::energy_distance(base, window);
      EXPECT_NEAR(h.last_statistic(), naive, 1e-7 * std::max(1.0, naive))
          << "slide " << i;
    }
  }
  EXPECT_EQ(h.change_points(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSlideProperty, ::testing::Range(1, 11));

TEST(WindowedHeuristic, HeightCoordinatesSupported) {
  EnergyHeuristic h(4.0, 8);
  Coordinate app = Coordinate{Vec{0.0, 0.0}, 1.0};
  Rng rng(56);
  for (int i = 0; i < 16; ++i) {
    h.on_system_update(
        {Coordinate{Vec{rng.normal(0.0, 0.1), 0.0}, 1.0}, nullptr, 0.0}, app);
  }
  bool fired = false;
  for (int i = 0; i < 16 && !fired; ++i) {
    fired = h.on_system_update(
        {Coordinate{Vec{40.0 + rng.normal(0.0, 0.1), 0.0}, 5.0}, nullptr, 0.0}, app);
  }
  ASSERT_TRUE(fired);
  EXPECT_TRUE(app.has_height());
  EXPECT_GE(app.height(), 0.0);
}

}  // namespace
}  // namespace nc
