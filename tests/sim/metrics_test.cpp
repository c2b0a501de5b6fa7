#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace nc::sim {
namespace {

Coordinate at(double x, double y) { return Coordinate{Vec{x, y}}; }

MetricsConfig small_config() {
  MetricsConfig c;
  c.num_nodes = 4;
  c.duration_s = 100.0;
  c.measure_start_s = 0.0;
  c.min_node_samples = 1;
  return c;
}

ObservationOutcome outcome(double sys_move, bool app_updated, double app_move) {
  ObservationOutcome o;
  o.filtered_rtt_ms = 1.0;
  o.vivaldi_updated = true;
  o.system_displacement_ms = sys_move;
  o.app_updated = app_updated;
  o.app_displacement_ms = app_move;
  return o;
}

/// One observation plus its per-destination record: the engine feeds the
/// error on_observation returns to the destination owner's collector, which
/// here is the same collector.
void observe_with_dst(MetricsCollector& m, double t, NodeId src, NodeId dst,
                      double raw_rtt_ms, const Coordinate& src_app,
                      const Coordinate& dst_app,
                      const ObservationOutcome& o = outcome(0, false, 0)) {
  m.record_dst_error(
      t, dst, m.on_observation(t, src, dst, raw_rtt_ms, src_app, dst_app, o));
}

TEST(MetricsCollector, RejectsBadConfig) {
  MetricsConfig c = small_config();
  c.num_nodes = 1;
  EXPECT_THROW(MetricsCollector{c}, CheckError);
  c = small_config();
  c.measure_start_s = 200.0;
  EXPECT_THROW(MetricsCollector{c}, CheckError);
  // A window that contains no FULL second (stability metrics cover
  // [ceil(start), ceil(duration))) is rejected up front, not at query time.
  c = small_config();
  c.duration_s = 60.0;
  c.measure_start_s = 59.5;
  EXPECT_THROW(MetricsCollector{c}, CheckError);
}

TEST(MetricsCollector, RelativeErrorPerNode) {
  MetricsCollector m(small_config());
  // Node 0 at (0,0), node 1 at (30,0): predicted 30. Observed 60 => err 0.5.
  m.on_observation(1.0, 0, 1, 60.0, at(0, 0), at(30, 0), outcome(0, false, 0));
  // Observed 30 => err 0.
  m.on_observation(2.0, 0, 1, 30.0, at(0, 0), at(30, 0), outcome(0, false, 0));
  const auto cdf = m.per_node_median_error();
  ASSERT_EQ(cdf.size(), 1u);  // only node 0 observed anything
  EXPECT_DOUBLE_EQ(cdf.median(), 0.25);
  EXPECT_EQ(m.observation_count(), 2u);
}

TEST(MetricsCollector, InstabilityAggregatesPerSecond) {
  MetricsCollector m(small_config());
  // Three observations in second 5 moving 2, 3, 5 ms; one in second 6.
  m.on_observation(5.1, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(9, true, 2));
  m.on_observation(5.5, 1, 2, 10.0, at(0, 0), at(10, 0), outcome(9, true, 3));
  m.on_observation(5.9, 2, 3, 10.0, at(0, 0), at(10, 0), outcome(9, true, 5));
  m.on_observation(6.5, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(9, true, 7));
  const auto cdf = m.instability();
  // 100 seconds window: 98 zero seconds, one 10, one 7.
  EXPECT_EQ(cdf.size(), 100u);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  // System instability uses system displacements.
  EXPECT_DOUBLE_EQ(m.system_instability().max(), 27.0);
}

TEST(MetricsCollector, EvalWindowExcludesWarmup) {
  MetricsConfig c = small_config();
  c.measure_start_s = 50.0;
  MetricsCollector m(c);
  m.on_observation(10.0, 0, 1, 10.0, at(0, 0), at(20, 0), outcome(5, true, 5));
  m.on_observation(60.0, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(5, true, 5));
  // Only the t=60 observation is inside the window: err |10-10|/10 = 0.
  const auto cdf = m.per_node_median_error();
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf.median(), 0.0);
  // Instability CDF spans [50, 100).
  EXPECT_EQ(m.instability().size(), 50u);
}

TEST(MetricsCollector, PctNodesUpdatingCountsDistinctNodes) {
  MetricsCollector m(small_config());
  // Two updates by the same node in one second count once.
  m.on_observation(3.1, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(1, true, 1));
  m.on_observation(3.6, 0, 2, 10.0, at(0, 0), at(10, 0), outcome(1, true, 1));
  m.on_observation(3.8, 1, 2, 10.0, at(0, 0), at(10, 0), outcome(1, true, 1));
  // Second 3: 2 of 4 nodes updated => 50%; other 99 seconds 0%.
  EXPECT_NEAR(m.mean_pct_nodes_updating_per_s(), 50.0 / 100.0, 1e-9);
  EXPECT_EQ(m.total_app_updates(), 3u);
}

TEST(MetricsCollector, MinNodeSamplesFilters) {
  MetricsConfig c = small_config();
  c.min_node_samples = 3;
  MetricsCollector m(c);
  for (int i = 0; i < 3; ++i)
    m.on_observation(i + 0.5, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, false, 0));
  m.on_observation(0.5, 1, 0, 10.0, at(10, 0), at(0, 0), outcome(0, false, 0));
  EXPECT_EQ(m.per_node_median_error().size(), 1u);  // node 1 has too few
}

TEST(MetricsCollector, TimeSeriesBucketsWholeRun) {
  MetricsConfig c = small_config();
  c.measure_start_s = 50.0;
  c.collect_timeseries = true;
  c.timeseries_bucket_s = 10.0;
  MetricsCollector m(c);
  // Time series include the warm-up (unlike accuracy CDFs).
  m.on_observation(5.0, 0, 1, 10.0, at(0, 0), at(20, 0), outcome(0, false, 0));
  m.on_observation(15.0, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, false, 0));
  const auto med = m.error_timeseries_median();
  ASSERT_EQ(med.size(), 2u);
  EXPECT_DOUBLE_EQ(med[0].value, 1.0);  // |20-10|/10
  EXPECT_DOUBLE_EQ(med[1].value, 0.0);
  EXPECT_FALSE(m.error_timeseries_p95().empty());
}

TEST(MetricsCollector, TimeSeriesDisabledThrows) {
  MetricsCollector m(small_config());
  EXPECT_THROW((void)m.error_timeseries_median(), CheckError);
}

TEST(MetricsCollector, InstabilityTimeSeriesAveragesSeconds) {
  MetricsConfig c = small_config();
  c.timeseries_bucket_s = 10.0;
  MetricsCollector m(c);
  m.on_observation(0.5, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 20.0));
  const auto ts = m.instability_timeseries();
  ASSERT_FALSE(ts.empty());
  // Bucket [0,10): one second with 20 ms, nine with 0 => mean 2 ms/s.
  EXPECT_DOUBLE_EQ(ts[0].value, 2.0);
}

TEST(MetricsCollector, OracleMetrics) {
  MetricsConfig c = small_config();
  c.collect_oracle = true;
  MetricsCollector m(c);
  for (int i = 0; i < 5; ++i) {
    // Predicted 10 vs ground truth 20 => oracle error 0.5 even though the
    // raw observation (10) would give error 0.
    m.on_observation(i + 0.5, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, false, 0),
                     20.0);
  }
  const auto cdf = m.oracle_per_node_median_error();
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_NEAR(cdf.median(), 0.5, 1e-9);
}

TEST(MetricsCollector, OracleDisabledThrows) {
  MetricsCollector m(small_config());
  EXPECT_THROW((void)m.oracle_per_node_median_error(), CheckError);
}

TEST(MetricsCollector, DriftTracking) {
  MetricsConfig c = small_config();
  c.tracked_nodes = {2};
  MetricsCollector m(c);
  m.track_coordinate(10.0, 2, at(1, 2));
  m.track_coordinate(20.0, 2, at(3, 4));
  const auto& d = m.drift(2);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].t, 10.0);
  EXPECT_EQ(d[1].position[0], 3.0);
  EXPECT_THROW((void)m.drift(0), CheckError);
}

TEST(MetricsCollector, MeanInstabilityIsTotalMovementOverTime) {
  MetricsConfig c = small_config();
  c.measure_start_s = 50.0;
  MetricsCollector m(c);
  // 10 + 30 = 40 ms of movement over a 50-second window => 0.8 ms/s.
  m.on_observation(60.2, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 10.0));
  m.on_observation(70.9, 1, 2, 10.0, at(0, 0), at(10, 0), outcome(0, true, 30.0));
  // Movement before the window is excluded.
  m.on_observation(10.0, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 99.0));
  EXPECT_NEAR(m.mean_instability_ms_per_s(), 0.8, 1e-9);
}

TEST(MetricsCollector, OracleMedianOfSingleNode) {
  MetricsConfig c = small_config();
  c.collect_oracle = true;
  c.min_node_samples = 3;
  MetricsCollector m(c);
  for (int i = 0; i < 5; ++i)
    m.on_observation(i + 0.5, 2, 1, 10.0, at(0, 0), at(10, 0), outcome(0, false, 0),
                     20.0);
  EXPECT_NEAR(m.oracle_median_error_of(2), 0.5, 1e-9);
  EXPECT_THROW((void)m.oracle_median_error_of(0), CheckError);  // no samples
}

TEST(MetricsCollector, PerDstMedianErrorKeyedByObservedNode) {
  MetricsCollector m(small_config());
  // Three observers aim at node 3; their errors are 0.5, 0.25 and 0.0, so
  // node 3's per-destination median is 0.25. Node 1 is observed once with
  // error 1.0.
  observe_with_dst(m, 1.0, 0, 3, 60.0, at(0, 0), at(30, 0));
  observe_with_dst(m, 2.0, 1, 3, 40.0, at(0, 0), at(30, 0));
  observe_with_dst(m, 3.0, 2, 3, 30.0, at(0, 0), at(30, 0));
  observe_with_dst(m, 4.0, 0, 1, 20.0, at(0, 0), at(40, 0));
  EXPECT_DOUBLE_EQ(m.median_error_to(3), 0.25);
  EXPECT_DOUBLE_EQ(m.median_error_to(1), 1.0);
  EXPECT_EQ(m.dst_observation_count(3), 3u);
  EXPECT_EQ(m.dst_observation_count(2), 0u);
  const auto cdf = m.per_dst_median_error();
  ASSERT_EQ(cdf.size(), 2u);  // only nodes 1 and 3 were observed
  EXPECT_DOUBLE_EQ(cdf.max(), 1.0);
}

TEST(MetricsCollector, PerDstExcludesWarmupAndEnforcesMinSamples) {
  MetricsConfig c = small_config();
  c.measure_start_s = 50.0;
  c.min_node_samples = 2;
  MetricsCollector m(c);
  observe_with_dst(m, 10.0, 0, 3, 60.0, at(0, 0), at(30, 0));
  EXPECT_EQ(m.dst_observation_count(3), 0u);  // warm-up excluded
  observe_with_dst(m, 60.0, 0, 3, 60.0, at(0, 0), at(30, 0));
  EXPECT_EQ(m.dst_observation_count(3), 1u);
  EXPECT_THROW((void)m.median_error_to(3), CheckError);  // below min samples
  EXPECT_TRUE(m.per_dst_median_error().empty());
  observe_with_dst(m, 61.0, 1, 3, 60.0, at(0, 0), at(30, 0));
  EXPECT_EQ(m.per_dst_median_error().size(), 1u);
}

TEST(MetricsCollector, FinalizeFlushesTheLastInFlightSecond) {
  MetricsCollector m(small_config());
  // One burst of movement inside a single second, never rolled over: before
  // finalize() the per-node movement distribution has no flushed seconds at
  // all, so the node is invisible and its p95 silently truncated.
  m.on_observation(5.2, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 40.0));
  m.on_observation(5.7, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 2.0));
  EXPECT_TRUE(m.per_node_p95_movement().empty());
  m.finalize();
  const auto cdf = m.per_node_p95_movement();
  ASSERT_EQ(cdf.size(), 1u);
  // finalize() is idempotent: a second call must not duplicate the second.
  m.finalize();
  EXPECT_EQ(m.per_node_p95_movement().size(), 1u);
}

TEST(MetricsCollector, InstabilityWindowExcludesPartialWarmupSecond) {
  MetricsConfig c = small_config();
  c.measure_start_s = 50.5;  // second 50 straddles the warm-up boundary
  MetricsCollector m(c);
  // In the eval window by the accuracy gate (t >= 50.5), but inside the
  // partial second 50 — its movement must not appear in any per-second
  // stability metric.
  m.on_observation(50.7, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(9, true, 99.0));
  m.on_observation(51.5, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(9, true, 10.0));
  m.finalize();
  // Full seconds 51..99 only: 49 of them, and the 99 ms never leaks in.
  const auto cdf = m.instability();
  EXPECT_EQ(cdf.size(), 49u);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
  EXPECT_NEAR(m.mean_instability_ms_per_s(), 10.0 / 49.0, 1e-9);
  // Accuracy still counts both observations (it gates per observation).
  EXPECT_EQ(m.per_node_median_error().size(), 1u);
  // Per-node movement seconds follow the same full-second boundary.
  const auto p95 = m.per_node_p95_movement();
  ASSERT_EQ(p95.size(), 1u);
  EXPECT_LT(p95.max(), 99.0);
}

TEST(MetricsCollector, DeferredDstAccountingRoutesThroughRecordDstError) {
  MetricsCollector m(small_config());
  m.on_observation(1.0, 0, 3, 60.0, at(0, 0), at(30, 0), outcome(0, false, 0));
  // on_observation leaves the destination's accounting to the caller.
  EXPECT_EQ(m.dst_observation_count(3), 0u);
  m.record_dst_error(1.0, 3, 0.5);
  m.record_dst_error(2.0, 3, 0.25);
  m.record_dst_error(3.0, 3, 0.0);
  EXPECT_EQ(m.dst_observation_count(3), 3u);
  EXPECT_DOUBLE_EQ(m.median_error_to(3), 0.25);
}

TEST(MetricsCollector, RecordDstErrorRespectsEvalWindow) {
  MetricsConfig c = small_config();
  c.measure_start_s = 50.0;
  MetricsCollector m(c);
  m.record_dst_error(10.0, 2, 1.0);  // warm-up: ignored
  EXPECT_EQ(m.dst_observation_count(2), 0u);
  m.record_dst_error(60.0, 2, 1.0);
  EXPECT_EQ(m.dst_observation_count(2), 1u);
}

TEST(MetricsCollector, MergeCombinesDisjointNodeSets) {
  MetricsCollector a(small_config());
  MetricsCollector b(small_config());
  // Shard A owns nodes 0-1, shard B owns 2-3; same second, both shards.
  // Every observation stays within one shard, so each collector also owns
  // its destinations.
  observe_with_dst(a, 5.1, 0, 1, 60.0, at(0, 0), at(30, 0), outcome(1, true, 2.0));
  observe_with_dst(a, 5.9, 1, 0, 30.0, at(0, 0), at(30, 0), outcome(1, true, 3.0));
  observe_with_dst(b, 5.5, 2, 3, 40.0, at(0, 0), at(30, 0), outcome(1, true, 5.0));
  observe_with_dst(b, 7.5, 3, 2, 30.0, at(0, 0), at(30, 0), outcome(1, true, 7.0));
  a.merge(b);

  EXPECT_EQ(a.observation_count(), 4u);
  EXPECT_EQ(a.total_app_updates(), 4u);
  EXPECT_EQ(a.per_node_median_error().size(), 4u);
  EXPECT_EQ(a.per_dst_median_error().size(), 4u);
  // Second 5 sums movement across shards: 2 + 3 + 5 = 10; second 7 has 7.
  EXPECT_DOUBLE_EQ(a.instability().max(), 10.0);
  EXPECT_DOUBLE_EQ(a.system_instability().max(), 3.0);
  // Distinct updating nodes in second 5: three of four nodes => mean over
  // the 100 s window = (3 + 1) / 100 nodes-seconds of 4 nodes.
  EXPECT_NEAR(a.mean_pct_nodes_updating_per_s(), 100.0 * 4.0 / 400.0, 1e-9);
}

TEST(MetricsCollector, MergeRejectsOverlapAndConfigMismatch) {
  MetricsCollector a(small_config());
  MetricsCollector b(small_config());
  a.on_observation(1.0, 0, 1, 60.0, at(0, 0), at(30, 0), outcome(0, false, 0));
  b.on_observation(2.0, 0, 1, 60.0, at(0, 0), at(30, 0), outcome(0, false, 0));
  EXPECT_THROW(a.merge(b), CheckError);  // node 0 observed on both sides

  MetricsConfig other = small_config();
  other.duration_s = 200.0;
  MetricsCollector c(other);
  EXPECT_THROW(a.merge(c), CheckError);
}

TEST(MetricsCollector, MergeUnionsDriftAndTimeseries) {
  MetricsConfig ca = small_config();
  ca.tracked_nodes = {0};
  ca.collect_timeseries = true;
  ca.timeseries_bucket_s = 10.0;
  MetricsConfig cb = small_config();
  cb.tracked_nodes = {2};
  cb.collect_timeseries = true;
  cb.timeseries_bucket_s = 10.0;
  MetricsCollector a(ca);
  MetricsCollector b(cb);
  a.track_coordinate(10.0, 0, at(1, 1));
  b.track_coordinate(10.0, 2, at(2, 2));
  a.on_observation(5.0, 0, 1, 10.0, at(0, 0), at(20, 0), outcome(0, false, 0));
  b.on_observation(15.0, 2, 3, 10.0, at(0, 0), at(10, 0), outcome(0, false, 0));
  a.merge(b);
  EXPECT_EQ(a.drift(0).size(), 1u);
  EXPECT_EQ(a.drift(2).size(), 1u);
  const auto med = a.error_timeseries_median();
  ASSERT_EQ(med.size(), 2u);
  EXPECT_DOUBLE_EQ(med[0].value, 1.0);
  EXPECT_DOUBLE_EQ(med[1].value, 0.0);
}

TEST(MetricsCollector, PerNodeMovementPercentile) {
  MetricsCollector m(small_config());
  // Node 0 moves 10 ms in one second, then is quiet: its p95 per-second
  // movement over the 100 s window is ~0 (padded zeros dominate).
  m.on_observation(1.2, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 10.0));
  for (int sec = 2; sec < 99; ++sec)
    m.on_observation(sec + 0.1, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, false, 0));
  const auto cdf = m.per_node_p95_movement();
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_LT(cdf.max(), 10.0);
}

// The per-node movement store is capacity-hinted at its first flush: the
// steady-state flush path (one entry per eval second) must never
// reallocate.
TEST(MetricsCollector, NodeSecondFlushesDoNotReallocate) {
  MetricsCollector m(small_config());  // 100 s window
  EXPECT_EQ(m.node_movement_capacity(0), 0u);  // no flush yet, no commit
  // Second 1 opens the node's window; the flush happens when second 2
  // arrives.
  m.on_observation(1.2, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 1.0));
  m.on_observation(2.2, 0, 1, 10.0, at(0, 0), at(10, 0), outcome(0, true, 1.0));
  const std::size_t cap = m.node_movement_capacity(0);
  EXPECT_GE(cap, 100u);  // hinted from the eval window, not grown from 1
  for (int sec = 3; sec < 100; ++sec)
    m.on_observation(sec + 0.2, 0, 1, 10.0, at(0, 0), at(10, 0),
                     outcome(0, true, 1.0));
  m.finalize();
  EXPECT_EQ(m.node_movement_capacity(0), cap);  // one window, zero regrowth
}

// Dense drift storage must reject ids outside [0, num_nodes) up front
// (the sparse map silently accepted them).
TEST(MetricsCollector, TrackingOutOfRangeNodeRejected) {
  MetricsConfig c = small_config();
  c.tracked_nodes = {99};
  EXPECT_THROW(MetricsCollector{c}, CheckError);
  MetricsCollector m(small_config());
  EXPECT_THROW(m.track_coordinate(1.0, 99, at(0, 0)), CheckError);
  EXPECT_THROW((void)m.drift(99), CheckError);
}

}  // namespace
}  // namespace nc::sim
