#include "estimate/idms_estimator.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace nc::est {
namespace {

LatencyObservation obs(NodeId src, NodeId dst, double t_s, double rtt,
                       const Coordinate& src_app = {},
                       const Coordinate& dst_app = {}) {
  return LatencyObservation{src, dst, t_s, rtt, src_app, dst_app};
}

TEST(IDMSEstimator, FirstSampleFillsTheCell) {
  IDMSEstimator est({}, 4);
  est.on_observation(obs(0, 1, 1.0, 120.0));
  const auto e = est.estimate_rtt(0, 1, 1.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 120.0);
  const EstimatorStats s = est.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.direct_hits, 1u);
}

TEST(IDMSEstimator, RepeatedSamplesSmoothWithEwma) {
  IDMSEstimator est({.max_age_s = 600.0, .alpha = 0.3}, 4);
  est.on_observation(obs(0, 1, 1.0, 100.0));
  est.on_observation(obs(0, 1, 2.0, 50.0));
  // Bit-exact EWMA reference: alpha * newest + (1 - alpha) * cell.
  double cell = 100.0;
  cell = 0.3 * 50.0 + (1.0 - 0.3) * cell;
  EXPECT_EQ(est.estimate_rtt(0, 1, 2.0), cell);
  // A spike moves the cell by alpha only, it does not own it.
  est.on_observation(obs(0, 1, 3.0, 1000.0));
  cell = 0.3 * 1000.0 + (1.0 - 0.3) * cell;
  EXPECT_EQ(est.estimate_rtt(0, 1, 3.0), cell);
  EXPECT_EQ(est.stats().entries, 1u);  // still one cell
}

TEST(IDMSEstimator, MatrixIsDirected) {
  IDMSEstimator est({}, 4);
  est.on_observation(obs(0, 1, 1.0, 100.0));
  est.on_observation(obs(1, 0, 1.0, 200.0));
  EXPECT_EQ(est.estimate_rtt(0, 1, 1.0), 100.0);
  EXPECT_EQ(est.estimate_rtt(1, 0, 1.0), 200.0);
  EXPECT_EQ(est.stats().entries, 2u);
}

TEST(IDMSEstimator, StaleCellFallsBackToCoordinates) {
  IDMSEstimator est({.max_age_s = 10.0}, 4);
  const Coordinate a{Vec{30.0, 0.0}};
  const Coordinate b{Vec{0.0, 40.0}};
  est.on_observation(obs(0, 1, 0.0, 120.0, a, b));
  // Fresh: the measured cell answers.
  EXPECT_EQ(est.estimate_rtt(0, 1, 5.0), 120.0);
  // Past the horizon the point measurement is dead; the embedded coordinate
  // backend (fed the same stream) answers instead.
  const auto e = est.estimate_rtt(0, 1, 100.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, a.distance_to(b));
  const EstimatorStats s = est.stats();
  EXPECT_EQ(s.direct_hits, 1u);
  EXPECT_EQ(s.fallback_hits, 1u);
  EXPECT_EQ(s.stale_entries, 1u);
}

TEST(IDMSEstimator, MissesWhenCellAndFallbackBothEmpty) {
  IDMSEstimator est({}, 4);
  // No observation at all: nothing measured, no coordinates advertised.
  EXPECT_EQ(est.estimate_rtt(2, 3, 1.0), std::nullopt);
  const EstimatorStats s = est.stats();
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(IDMSEstimator, OwnsAShardSlice) {
  // A shard owning nodes {2, 3} of a 4-node deployment feeds only their
  // observations: the matrix holds those rows and nothing else.
  IDMSEstimator est({}, 4);
  const std::uint64_t empty_bytes = est.stats().memory_bytes;
  est.on_observation(obs(2, 0, 1.0, 80.0));
  est.on_observation(obs(3, 1, 1.0, 90.0));
  EXPECT_EQ(est.estimate_rtt(2, 0, 1.0), 80.0);
  EXPECT_EQ(est.estimate_rtt(3, 1, 1.0), 90.0);
  EXPECT_EQ(est.stats().entries, 2u);
  EXPECT_GT(est.stats().memory_bytes, empty_bytes);
}

TEST(IDMSEstimator, RejectsBadConfig) {
  EXPECT_THROW(IDMSEstimator({.max_age_s = 0.0}, 4), CheckError);
  EXPECT_THROW(IDMSEstimator({.max_age_s = 1.0, .alpha = 0.0}, 4),
               CheckError);
  EXPECT_THROW(IDMSEstimator({.max_age_s = 1.0, .alpha = 1.5}, 4),
               CheckError);
  EXPECT_THROW(IDMSEstimator({}, -1), CheckError);
}

// The matrix holds measured cells only: queries for never-measured pairs go
// through try_at, so a miss storm across every row allocates nothing.
TEST(IDMSEstimator, QueriesOnUnmeasuredPairsDoNotAllocate) {
  const int n = 512;
  IDMSEstimator est({}, n);
  // All observers in the first 8 rows: the measured cells concentrate in
  // one corner of the matrix.
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(i % 8);
    const auto dst = static_cast<NodeId>((i * 13 + 9) % n);
    if (src == dst) continue;
    est.on_observation(obs(src, dst, static_cast<double>(i),
                           20.0 + static_cast<double>(i % 50)));
  }
  const EstimatorStats before = est.stats();
  for (NodeId a = 0; a < n; ++a)
    (void)est.estimate_rtt(a, (a + 1) % n, 500.0);
  const EstimatorStats after = est.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.memory_bytes, before.memory_bytes);
}

}  // namespace
}  // namespace nc::est
