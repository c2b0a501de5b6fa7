// Cross-cutting filter properties that every filter kind's row kernel must
// satisfy, parameterized over the configured kinds. Each property drives the
// kernel through a standalone LatencyFilter row; SlabRowsMatchStandaloneOwners
// drives it bare over rows packed into one buffer, the way NCClient does.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/filter.hpp"

namespace nc {
namespace {

std::vector<FilterConfig> all_configs() {
  return {
      FilterConfig::none(),
      FilterConfig::moving_percentile(4, 25),
      FilterConfig::moving_percentile(16, 50, 2),
      FilterConfig::ewma(0.1),
      FilterConfig::threshold(1000.0),
  };
}

class FilterContract : public ::testing::TestWithParam<int> {
 protected:
  FilterConfig config() const {
    return all_configs()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(FilterContract, FreshRowReplaysIdentically) {
  // A row that saw history and was reset must behave exactly like a freshly
  // built one: same stream in, same outputs out. This is the contract that
  // lets NCClient re-initialize an evicted slab row in place.
  LatencyFilter used(config());
  Rng warm(1);
  for (int i = 0; i < 50; ++i) used.update(warm.lognormal(4.0, 1.0));
  used.reset();
  LatencyFilter fresh(config());

  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.lognormal(4.0, 1.2);
    ASSERT_EQ(used.update(x), fresh.update(x)) << config().name() << " @" << i;
  }
}

TEST_P(FilterContract, SlabRowsMatchStandaloneOwners) {
  // Eight links' rows packed back to back in one buffer, fed interleaved
  // streams through the bare kernel, must match eight standalone owners:
  // a kernel touches its own row and nothing else.
  constexpr std::size_t kLinks = 8;
  const FilterKernel kernel(config());
  const std::size_t stride = kernel.row_doubles();
  std::vector<FilterState> states(kLinks);
  std::vector<double> slab(kLinks * stride, -1.0);
  std::vector<LatencyFilter> owners(kLinks, LatencyFilter(config()));

  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto link = static_cast<std::size_t>(rng.uniform_int(kLinks));
    const double x = rng.lognormal(4.0 + 0.1 * static_cast<double>(link), 1.2);
    ASSERT_EQ(kernel.update(states[link], slab.data() + link * stride, x),
              owners[link].update(x))
        << config().name() << " link " << link << " @" << i;
  }
  for (std::size_t link = 0; link < kLinks; ++link)
    EXPECT_EQ(kernel.estimate(states[link], slab.data() + link * stride),
              owners[link].estimate())
        << config().name() << " link " << link;
}

TEST_P(FilterContract, ResetForgetsEverything) {
  LatencyFilter f(config());
  Rng rng(3);
  for (int i = 0; i < 100; ++i) f.update(rng.lognormal(4.0, 1.0));
  f.reset();
  EXPECT_EQ(f.estimate(), std::nullopt) << config().name();
}

TEST_P(FilterContract, EstimateIsStableWithoutUpdates) {
  LatencyFilter f(config());
  f.update(50.0);
  f.update(60.0);
  const auto e1 = f.estimate();
  const auto e2 = f.estimate();
  EXPECT_EQ(e1, e2) << config().name();
}

TEST_P(FilterContract, OutputWithinObservedRange) {
  // No filter may extrapolate beyond the values it has seen.
  LatencyFilter f(config());
  Rng rng(4);
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.lognormal(4.0, 1.5);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    const auto out = f.update(x);
    if (out.has_value()) {
      ASSERT_GE(*out, lo) << config().name();
      ASSERT_LE(*out, hi) << config().name();
    }
  }
}

TEST_P(FilterContract, ConstantInputIsFixedPoint) {
  LatencyFilter f(config());
  std::optional<double> out;
  for (int i = 0; i < 50; ++i) out = f.update(123.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_DOUBLE_EQ(*out, 123.0) << config().name();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FilterContract, ::testing::Range(0, 5));

}  // namespace
}  // namespace nc
