#include "stats/energy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nc::stats {
namespace {

std::vector<Vec> random_sample(Rng& rng, int n, int dim, double spread,
                               const Vec& center) {
  std::vector<Vec> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec v = center;
    for (int d = 0; d < dim; ++d) v[d] += rng.normal(0.0, spread);
    out.push_back(v);
  }
  return out;
}

TEST(EnergyDistance, EmptyThrows) {
  const std::vector<Vec> a = {Vec{0.0, 0.0}};
  EXPECT_THROW((void)energy_distance(a, {}), CheckError);
  EXPECT_THROW((void)energy_distance({}, a), CheckError);
}

TEST(EnergyDistance, IdenticalSamplesAreZero) {
  Rng rng(31);
  const auto a = random_sample(rng, 16, 3, 5.0, Vec::zero(3));
  EXPECT_NEAR(energy_distance(a, a), 0.0, 1e-9);
}

TEST(EnergyDistance, Symmetric) {
  Rng rng(32);
  const auto a = random_sample(rng, 12, 3, 5.0, Vec::zero(3));
  const auto b = random_sample(rng, 17, 3, 5.0, Vec{10.0, 0.0, 0.0});
  EXPECT_NEAR(energy_distance(a, b), energy_distance(b, a), 1e-9);
}

TEST(EnergyDistance, NonNegativeAndGrowsWithSeparation) {
  Rng rng(33);
  const auto a = random_sample(rng, 16, 3, 2.0, Vec::zero(3));
  const auto near = random_sample(rng, 16, 3, 2.0, Vec{1.0, 0.0, 0.0});
  const auto far = random_sample(rng, 16, 3, 2.0, Vec{50.0, 0.0, 0.0});
  const double e_near = energy_distance(a, near);
  const double e_far = energy_distance(a, far);
  EXPECT_GE(e_near, 0.0);
  EXPECT_GT(e_far, e_near);
  EXPECT_GT(e_far, 100.0);  // well-separated clusters have large energy
}

TEST(EnergyDistance, TwoPointsKnownValue) {
  // A = {0}, B = {d} in 1-D: e = (1*1/2) * (2*d - 0 - 0) = d.
  const std::vector<Vec> a = {Vec{0.0}};
  const std::vector<Vec> b = {Vec{3.0}};
  EXPECT_DOUBLE_EQ(energy_distance(a, b), 3.0);
}

// EnergyHeuristic's incremental sums are checked against energy_distance in
// tests/core/windowed_heuristics_test.cpp (IncrementalEnergy.*,
// IncrementalSlideProperty) and bit for bit against the deque algorithm in
// tests/core/heuristic_reference_test.cpp.

}  // namespace
}  // namespace nc::stats
