#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/filters/ewma_filter.hpp"
#include "core/filters/filter_config.hpp"
#include "core/filters/identity_filter.hpp"
#include "core/filters/mp_filter.hpp"
#include "core/filters/threshold_filter.hpp"
#include "stats/percentile.hpp"

namespace nc {
namespace {

// ------------------------------------------------------------------- MP --

TEST(MpFilter, RejectsBadParameters) {
  EXPECT_THROW(MovingPercentileFilter(0, 25.0), CheckError);
  EXPECT_THROW(MovingPercentileFilter(4, 101.0), CheckError);
  EXPECT_THROW(MovingPercentileFilter(4, 25.0, 0), CheckError);
  EXPECT_THROW(MovingPercentileFilter(4, 25.0, 5), CheckError);
}

TEST(MpFilter, PaperParametersReturnWindowMinimum) {
  // MP(4, 25): "taking the 25th percentile (minimum) of the previous four".
  MovingPercentileFilter f(4, 25.0);
  EXPECT_EQ(f.update(100.0), 100.0);
  EXPECT_EQ(f.update(50.0), 50.0);
  EXPECT_EQ(f.update(200.0), 50.0);
  EXPECT_EQ(f.update(80.0), 50.0);
  // Window is now {100,50,200,80}; adding evicts 100.
  EXPECT_EQ(f.update(300.0), 50.0);   // {50,200,80,300}
  EXPECT_EQ(f.update(400.0), 80.0);   // {200,80,300,400}
}

TEST(MpFilter, SpikeIsAbsorbed) {
  MovingPercentileFilter f(4, 25.0);
  for (double v : {30.0, 31.0, 29.0, 30.0}) f.update(v);
  // A 3-orders-of-magnitude spike must not surface.
  EXPECT_EQ(f.update(30000.0), 29.0);
}

TEST(MpFilter, TracksGenuineLatencyShift) {
  // After a route change, the output converges within `history` samples.
  MovingPercentileFilter f(4, 25.0);
  for (int i = 0; i < 8; ++i) f.update(30.0);
  std::optional<double> out;
  for (int i = 0; i < 4; ++i) out = f.update(90.0);
  EXPECT_EQ(out, 90.0);
}

TEST(MpFilter, MinSamplesWithholdsOutput) {
  // Sec. VI first-sample pathology: a filter primed with min_samples = 2
  // absorbs an extreme first observation.
  MovingPercentileFilter f(4, 25.0, 2);
  EXPECT_EQ(f.update(25000.0), std::nullopt);
  EXPECT_EQ(f.estimate(), std::nullopt);
  EXPECT_EQ(f.update(40.0), 40.0);
}

TEST(MpFilter, MedianPercentile) {
  MovingPercentileFilter f(5, 50.0);
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) f.update(v);
  EXPECT_EQ(f.estimate(), 30.0);
}

TEST(MpFilter, HistoryOneIsPassThrough) {
  MovingPercentileFilter f(1, 25.0);
  EXPECT_EQ(f.update(5.0), 5.0);
  EXPECT_EQ(f.update(7.0), 7.0);
}

TEST(MpFilter, ResetClearsWindow) {
  MovingPercentileFilter f(4, 25.0, 2);
  f.update(1.0);
  f.update(2.0);
  f.reset();
  EXPECT_EQ(f.estimate(), std::nullopt);
  EXPECT_EQ(f.size(), 0);
}

TEST(MpFilter, CloneIsFreshWithSameParameters) {
  // clone() is gone: a filter built from another's config() is its
  // replacement — same parameters, empty row.
  MovingPercentileFilter f(8, 30.0, 3);
  f.update(1.0);
  const LatencyFilter c(f.config());
  EXPECT_EQ(c.config().mp_history, 8);
  EXPECT_EQ(c.config().mp_percentile, 30.0);
  EXPECT_EQ(c.config().mp_min_samples, 3);
  EXPECT_EQ(c.size(), 0);  // fresh history
  EXPECT_EQ(f.history(), 8);
  EXPECT_EQ(f.percentile(), 30.0);
  EXPECT_EQ(f.min_samples(), 3);
  EXPECT_EQ(f.size(), 1);
}

TEST(MpFilter, HistoryOneEvictionStaysConsistent) {
  // With history == 1 every update after the first takes the eviction path
  // with head_ == 0 and window_.size() == 1; the sorted view must track the
  // single-element window exactly, including repeated values.
  MovingPercentileFilter f(1, 50.0);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = (i % 3 == 0) ? 42.0 : rng.lognormal(3.5, 1.0);
    ASSERT_EQ(f.update(x), x) << "i=" << i;
    ASSERT_EQ(f.size(), 1);
    ASSERT_EQ(f.estimate(), x);
  }
}

TEST(MpFilter, ResetAfterFullWindowRefillsFromScratch) {
  // reset() must rewind the ring head as well as the contents: after a reset
  // the refill goes through the append path again and percentiles are over
  // the new samples only.
  MovingPercentileFilter f(3, 0.0);
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) f.update(v);  // head_ != 0
  f.reset();
  EXPECT_EQ(f.size(), 0);
  EXPECT_EQ(f.update(100.0), 100.0);  // old minimum must not resurface
  EXPECT_EQ(f.update(200.0), 100.0);
  EXPECT_EQ(f.update(90.0), 90.0);
  EXPECT_EQ(f.update(300.0), 90.0);  // eviction path sound after refill
}

TEST(MpFilter, MinSamplesReArmsAfterReset) {
  // The Sec. VI first-sample guard must apply again after reset(), not just
  // on the first-ever sample.
  MovingPercentileFilter f(4, 25.0, 2);
  f.update(30.0);
  f.update(31.0);
  f.reset();
  EXPECT_EQ(f.update(25000.0), std::nullopt);  // withheld again
  EXPECT_EQ(f.update(40.0), 40.0);
}

TEST(MpFilter, DuplicateValuesEvictCorrectly) {
  MovingPercentileFilter f(3, 0.0);  // minimum of last 3
  f.update(5.0);
  f.update(5.0);
  f.update(5.0);
  EXPECT_EQ(f.update(9.0), 5.0);  // {5,5,9}
  EXPECT_EQ(f.update(9.0), 5.0);  // {5,9,9}
  EXPECT_EQ(f.update(9.0), 9.0);  // {9,9,9}
}

// Property: against a brute-force sliding window for any (h, p), on a
// continuous stream and on a tie-heavy one drawn from five values (so an
// eviction meets duplicates of the outgoing sample). The grid drives a
// standalone MovingPercentileFilter and, like NCClient, a bare FilterKernel
// over three rows packed in one buffer and fed interleaved.
class MpFilterProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MpFilterProperty, MatchesBruteForceWindow) {
  const auto [h, p] = GetParam();
  constexpr std::size_t kRows = 3;
  const FilterConfig config = FilterConfig::moving_percentile(h, p);
  const FilterKernel kernel(config);
  const std::size_t stride = kernel.row_doubles();
  for (const bool ties : {false, true}) {
    Rng rng(hash_combine(static_cast<std::uint64_t>(h), static_cast<std::uint64_t>(p)));
    MovingPercentileFilter f(h, p);
    std::vector<FilterState> states(kRows);
    std::vector<double> slab(kRows * stride, -1.0);
    std::vector<std::deque<double>> windows(kRows);
    for (int i = 0; i < 300 * static_cast<int>(kRows); ++i) {
      const double x = ties ? 10.0 * static_cast<double>(1 + rng.uniform_int(5))
                            : rng.lognormal(3.5, 1.0);
      const auto row = static_cast<std::size_t>(i) % kRows;
      std::deque<double>& window = windows[row];
      window.push_back(x);
      if (static_cast<int>(window.size()) > h) window.pop_front();
      std::vector<double> sorted(window.begin(), window.end());
      std::sort(sorted.begin(), sorted.end());
      const double expected = stats::percentile_nearest_rank_sorted(sorted, p);
      ASSERT_EQ(kernel.update(states[row], slab.data() + row * stride, x), expected)
          << "h=" << h << " p=" << p << " ties=" << ties << " i=" << i;
      if (row == 0) {
        ASSERT_EQ(f.update(x), expected)
            << "h=" << h << " p=" << p << " ties=" << ties << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MpFilterProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 16, 32, 64, 128),
                       ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0)));

// ----------------------------------------------------------------- EWMA --

TEST(EwmaFilter, RejectsBadAlpha) {
  EXPECT_THROW(EwmaFilter(0.0), CheckError);
  EXPECT_THROW(EwmaFilter(1.5), CheckError);
}

TEST(EwmaFilter, FirstSamplePrimes) {
  EwmaFilter f(0.1);
  EXPECT_EQ(f.estimate(), std::nullopt);
  EXPECT_EQ(f.update(50.0), 50.0);
}

TEST(EwmaFilter, ExponentialSmoothing) {
  EwmaFilter f(0.25);
  f.update(100.0);
  EXPECT_EQ(f.update(200.0), 0.25 * 200.0 + 0.75 * 100.0);
}

TEST(EwmaFilter, OutlierPollutesForManySamples) {
  // The paper's Table I pathology: one spike lifts the estimate for ~1/alpha
  // samples.
  EwmaFilter f(0.2);
  for (int i = 0; i < 50; ++i) f.update(30.0);
  f.update(3000.0);
  EXPECT_GT(*f.estimate(), 600.0);
  std::optional<double> v;
  for (int i = 0; i < 5; ++i) v = f.update(30.0);
  EXPECT_GT(*v, 200.0);  // still badly polluted five samples later
}

TEST(EwmaFilter, ResetAndClone) {
  EwmaFilter f(0.3);
  f.update(10.0);
  f.reset();
  EXPECT_EQ(f.estimate(), std::nullopt);
  EXPECT_EQ(f.update(50.0), 50.0);  // re-primes from the raw sample
  // A filter built from the config (clone()'s replacement) keeps alpha.
  EXPECT_EQ(LatencyFilter(f.config()).config().ewma_alpha, 0.3);
  EXPECT_EQ(f.alpha(), 0.3);
}

// ------------------------------------------------------------ Threshold --

TEST(ThresholdFilter, RejectsBadCutoff) {
  EXPECT_THROW(ThresholdFilter(0.0), CheckError);
}

TEST(ThresholdFilter, DropsAboveCutoff) {
  ThresholdFilter f(1000.0);
  EXPECT_EQ(f.update(999.0), 999.0);
  EXPECT_EQ(f.update(1000.0), 1000.0);  // at cutoff passes
  EXPECT_EQ(f.update(1001.0), std::nullopt);
  EXPECT_EQ(f.estimate(), 1000.0);  // last accepted
}

TEST(ThresholdFilter, CannotAdaptToLinkScale) {
  // A global 1000 ms cutoff does nothing for a 30 ms link whose outliers
  // are 300 ms (the paper's argument against thresholds).
  ThresholdFilter f(1000.0);
  EXPECT_EQ(f.update(30.0), 30.0);
  EXPECT_EQ(f.update(300.0), 300.0);  // 10x outlier passes untouched
}

// ------------------------------------------------------------- Identity --

TEST(IdentityFilter, PassThrough) {
  IdentityFilter f;
  EXPECT_EQ(f.estimate(), std::nullopt);
  EXPECT_EQ(f.update(123.0), 123.0);
  EXPECT_EQ(f.estimate(), 123.0);
  f.reset();
  EXPECT_EQ(f.estimate(), std::nullopt);
}

// --------------------------------------------------------------- Config --

TEST(FilterConfig, FactoryProducesConfiguredKind) {
  // MP keeps h samples and h 16-bit tags, rounded up to whole doubles; the
  // others one value.
  EXPECT_EQ(FilterKernel(FilterConfig::none()).row_doubles(), 1u);
  EXPECT_EQ(FilterKernel(FilterConfig::moving_percentile(1, 25)).row_doubles(), 2u);
  EXPECT_EQ(FilterKernel(FilterConfig::moving_percentile(4, 25)).row_doubles(), 5u);
  EXPECT_EQ(FilterKernel(FilterConfig::moving_percentile(5, 25)).row_doubles(), 7u);
  EXPECT_EQ(FilterKernel(FilterConfig::moving_percentile(128, 25)).row_doubles(), 160u);
  EXPECT_EQ(FilterKernel(FilterConfig::ewma(0.1)).row_doubles(), 1u);
  EXPECT_EQ(FilterKernel(FilterConfig::threshold(500)).row_doubles(), 1u);
  // The named owners select their kind's kernel.
  EXPECT_EQ(IdentityFilter().config().kind, FilterKind::kIdentity);
  EXPECT_EQ(MovingPercentileFilter(4, 25).config().kind,
            FilterKind::kMovingPercentile);
  EXPECT_EQ(EwmaFilter(0.1).config().kind, FilterKind::kEwma);
  EXPECT_EQ(ThresholdFilter(500).config().kind, FilterKind::kThreshold);
}

TEST(FilterConfig, DefaultIsPaperMp425) {
  const FilterConfig c;
  EXPECT_EQ(c.kind, FilterKind::kMovingPercentile);
  EXPECT_EQ(c.mp_history, 4);
  EXPECT_EQ(c.mp_percentile, 25.0);
  LatencyFilter f(c);
  for (double v : {100.0, 50.0, 200.0, 80.0}) f.update(v);
  EXPECT_EQ(f.update(300.0), 50.0);  // min of the last four
}

TEST(FilterConfig, ValidateRejectsBadParametersOfTheSelectedKind) {
  const FilterConfig bad[] = {
      FilterConfig::moving_percentile(0, 25.0),
      FilterConfig::moving_percentile(4, -1.0),
      FilterConfig::moving_percentile(4, 100.5),
      FilterConfig::moving_percentile(4, 25.0, 0),
      FilterConfig::moving_percentile(4, 25.0, 5),
      // A 16-bit arrival tag cannot index a longer window.
      FilterConfig::moving_percentile(FilterConfig::kMaxMpHistory + 1, 25.0),
      FilterConfig::ewma(0.0),
      FilterConfig::ewma(1.5),
      FilterConfig::threshold(0.0),
      FilterConfig::threshold(-5.0),
  };
  for (const FilterConfig& c : bad) {
    EXPECT_THROW(c.validate(), CheckError) << c.name();
    EXPECT_THROW(LatencyFilter{c}, CheckError) << c.name();
  }
  // Only the selected kind's parameters count.
  FilterConfig ewma = FilterConfig::ewma(0.5);
  ewma.mp_history = 0;
  EXPECT_NO_THROW(ewma.validate());
  EXPECT_NO_THROW(FilterConfig::moving_percentile(1, 0.0).validate());
  EXPECT_NO_THROW(FilterConfig::moving_percentile(4, 100.0, 4).validate());
  EXPECT_NO_THROW(
      FilterConfig::moving_percentile(FilterConfig::kMaxMpHistory, 25.0).validate());
  EXPECT_NO_THROW(FilterConfig::ewma(1.0).validate());
}

TEST(FilterConfig, Names) {
  EXPECT_EQ(FilterConfig::none().name(), "none");
  EXPECT_EQ(FilterConfig::moving_percentile(4, 25).name(), "mp(h=4,p=25)");
  EXPECT_EQ(FilterConfig::ewma(0.1).name(), "ewma(a=0.1)");
  EXPECT_EQ(FilterConfig::threshold(1000).name(), "threshold(1000ms)");
}

}  // namespace
}  // namespace nc
