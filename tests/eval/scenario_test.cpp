#include "eval/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "eval/scenario.hpp"

namespace nc::eval {
namespace {

TEST(ScenarioRegistry, CatalogHasTheDocumentedPresets) {
  const auto names = scenario_names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names.front(), "planetlab");  // the paper's default comes first
  for (const char* expected : {"planetlab", "intercontinental", "churn",
                               "flash-crowd", "drift-heavy", "lan-cluster"}) {
    EXPECT_TRUE(scenario_exists(expected)) << expected;
  }
  EXPECT_FALSE(scenario_exists("no-such-workload"));
  EXPECT_EQ(scenario_catalog().size(), names.size());
  for (const auto& info : scenario_catalog())
    EXPECT_FALSE(info.summary.empty()) << info.name;
}

TEST(ScenarioRegistry, UnknownNameThrowsWithTheRegisteredList) {
  try {
    (void)make_scenario("bogus");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("planetlab"), std::string::npos);
  }
}

TEST(ScenarioRegistry, PresetsCarryTheirName) {
  for (const std::string& name : scenario_names())
    EXPECT_EQ(make_scenario(name).scenario, name);
}

// Every preset must construct at any scale and survive a short replay with
// finite, sane headline metrics — the smoke contract behind `--scenario=`.
TEST(ScenarioRegistry, EveryPresetRunsAShortReplay) {
  for (const std::string& name : scenario_names()) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = make_scenario(name);
    spec.workload.num_nodes = 16;
    spec.workload.duration_s = 900.0;
    spec.workload.seed = 3;
    const auto out = run_scenario(spec);
    EXPECT_GT(out.records, 0u);
    EXPECT_GT(out.metrics.observation_count(), 0u);
    const double err = out.metrics.median_relative_error();
    EXPECT_TRUE(std::isfinite(err));
    EXPECT_GE(err, 0.0);
    const double instab = out.metrics.mean_instability_ms_per_s();
    EXPECT_TRUE(std::isfinite(instab));
    EXPECT_GE(instab, 0.0);
  }
}

// The registry's workloads genuinely differ: the lan-cluster world is sub-
// millisecond while intercontinental links reach hundreds of ms.
TEST(ScenarioRegistry, PresetTopologiesDiffer) {
  const auto lan = resolve_trace_config(
      [] {
        ScenarioSpec s = make_scenario("lan-cluster");
        s.workload.num_nodes = 8;
        return s.workload;
      }());
  const auto inter = resolve_trace_config(
      [] {
        ScenarioSpec s = make_scenario("intercontinental");
        s.workload.num_nodes = 8;
        return s.workload;
      }());
  const auto lan_topo = lat::Topology::make(lan.topology);
  const auto inter_topo = lat::Topology::make(inter.topology);
  double lan_max = 0.0, inter_max = 0.0;
  for (NodeId i = 0; i < 8; ++i)
    for (NodeId j = 0; j < 8; ++j) {
      if (i == j) continue;
      lan_max = std::max(lan_max, lan_topo.base_rtt_ms(i, j));
      inter_max = std::max(inter_max, inter_topo.base_rtt_ms(i, j));
    }
  EXPECT_LT(lan_max, 5.0);
  EXPECT_GT(inter_max, 100.0);
}

// ---------------------------------------------------------------------------
// Route-change schedule presets.
// ---------------------------------------------------------------------------

TEST(RouteSchedules, CatalogHasTheDocumentedSchedules) {
  const auto names = route_schedule_names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names.front(), "none");
  for (const char* expected :
       {"none", "single-link", "regional-shift", "backbone-flap"}) {
    EXPECT_TRUE(route_schedule_exists(expected)) << expected;
  }
  EXPECT_FALSE(route_schedule_exists("no-such-schedule"));
  EXPECT_EQ(route_schedule_catalog().size(), names.size());
  for (const auto& info : route_schedule_catalog())
    EXPECT_FALSE(info.summary.empty()) << info.name;
}

TEST(RouteSchedules, UnknownNameThrowsWithTheRegisteredList) {
  ScenarioSpec spec = make_scenario("planetlab");
  try {
    apply_route_schedule(spec, "bogus");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("regional-shift"), std::string::npos);
  }
}

// Schedules are pure functions of node count and duration: every expanded
// event references valid distinct nodes, a positive factor and an in-run
// time — at any scale (presets never hard-code node ids).
TEST(RouteSchedules, ExpansionsAreValidAtAnyScale) {
  for (const std::string& name : route_schedule_names()) {
    for (const int n : {2, 16, 269}) {
      SCOPED_TRACE(name + " @ " + std::to_string(n));
      ScenarioSpec spec = make_scenario("planetlab");
      spec.workload.num_nodes = n;
      spec.workload.duration_s = 1800.0;
      apply_route_schedule(spec, name);
      for (const RouteChangeEvent& rc : spec.workload.route_changes) {
        EXPECT_GE(rc.i, 0);
        EXPECT_LT(rc.i, n);
        EXPECT_GE(rc.j, 0);
        EXPECT_LT(rc.j, n);
        EXPECT_NE(rc.i, rc.j);
        EXPECT_GT(rc.factor, 0.0);
        EXPECT_GT(rc.at_t, 0.0);
        EXPECT_LT(rc.at_t, spec.workload.duration_s);
      }
      if (name == "none") {
        EXPECT_TRUE(spec.workload.route_changes.empty());
      }
      if (name == "regional-shift" && n == 269) {
        // One region (capped block) against the rest: linear-in-n events.
        EXPECT_EQ(spec.workload.route_changes.size(), 50u * (269u - 50u));
      }
    }
  }
}

// A composed schedule drives an actual run in both modes (replay here;
// sharded_replay_test covers the oracle-visible effect, sharded_sim_test
// the online engine's directed links).
TEST(BackendPresets, CatalogHasTheDocumentedPresets) {
  const auto names = backend_names();
  EXPECT_EQ(names.front(), "coordinates");  // the paper's path is the default
  for (const char* expected :
       {"coordinates", "idms", "idms-volatile", "idms-sticky", "snapshot"}) {
    EXPECT_TRUE(backend_exists(expected)) << expected;
  }
  EXPECT_FALSE(backend_exists("no-such-backend"));
  EXPECT_EQ(backend_catalog().size(), names.size());
  for (const auto& info : backend_catalog())
    EXPECT_FALSE(info.summary.empty()) << info.name;
}

TEST(BackendPresets, UnknownNameThrowsWithTheRegisteredList) {
  ScenarioSpec spec = make_scenario("planetlab");
  try {
    apply_backend(spec, "bogus");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("coordinates"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("idms"), std::string::npos);
  }
}

TEST(BackendPresets, PresetsConfigureTheSpec) {
  ScenarioSpec spec = make_scenario("planetlab");
  EXPECT_EQ(spec.estimator.backend, est::EstimatorBackend::kCoordinates);
  apply_backend(spec, "idms");
  EXPECT_EQ(spec.estimator.backend, est::EstimatorBackend::kIdms);
  EXPECT_EQ(spec.estimator.max_age_s, 600.0);
  apply_backend(spec, "idms-volatile");
  EXPECT_EQ(spec.estimator.max_age_s, 60.0);
  apply_backend(spec, "idms-sticky");
  EXPECT_EQ(spec.estimator.max_age_s, 3600.0);
  apply_backend(spec, "coordinates");
  EXPECT_EQ(spec.estimator.backend, est::EstimatorBackend::kCoordinates);
}

// The smoke contract behind --backend=: every preset runs a short scenario
// and reports estimator stats + a memory budget through ScenarioOutput.
TEST(BackendPresets, EveryPresetRunsAShortScenario) {
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = make_scenario("planetlab");
    spec.workload.num_nodes = 12;
    spec.workload.duration_s = 300.0;
    spec.shards = 2;
    apply_backend(spec, name);
    const auto out = run_scenario(spec);
    EXPECT_GT(out.metrics.observation_count(), 0u);
    EXPECT_EQ(out.estimator_stats.queries, out.metrics.observation_count());
    EXPECT_EQ(out.estimator_stats.misses, 0u);  // in-stream queries always hit
    EXPECT_GT(out.estimator_stats.entries, 0u);
    EXPECT_GT(out.estimator_stats.traffic_bytes, 0u);
    EXPECT_GT(out.memory.estimator_bytes, 0u);
    EXPECT_GT(out.memory.client_bytes, 0u);
    EXPECT_GT(out.memory.total(), out.memory.estimator_bytes);
  }
}

// Partition-on-open replay: at shards > 1 run_scenario splits the generated
// trace into per-shard slice files and replays one slice per reader. That
// must not change a single metric bit vs the single reader a one-shard run
// uses.
TEST(PartitionReplay, BitIdenticalToSingleReader) {
  ScenarioSpec spec = make_scenario("planetlab");
  spec.workload.num_nodes = 24;
  spec.workload.duration_s = 600.0;

  spec.shards = 1;
  const ScenarioOutput single = run_scenario(spec);
  spec.shards = 3;
  const ScenarioOutput split = run_scenario(spec);

  EXPECT_EQ(single.records, split.records);
  EXPECT_EQ(single.attempts, split.attempts);
  EXPECT_EQ(single.absorbed, split.absorbed);
  EXPECT_EQ(single.metrics.observation_count(),
            split.metrics.observation_count());
  EXPECT_EQ(single.metrics.total_app_updates(),
            split.metrics.total_app_updates());
  EXPECT_EQ(single.metrics.median_relative_error(),
            split.metrics.median_relative_error());
  EXPECT_EQ(single.metrics.mean_instability_ms_per_s(),
            split.metrics.mean_instability_ms_per_s());
  EXPECT_EQ(single.estimator_stats.queries, split.estimator_stats.queries);
}

// One worker shard reads the trace through the single reader, so oracle
// collection composes with it.
TEST(PartitionReplay, SingleShardFallsBackToOneReader) {
  ScenarioSpec spec = make_scenario("planetlab");
  spec.workload.num_nodes = 12;
  spec.workload.duration_s = 300.0;
  spec.shards = 1;
  spec.measurement.collect_oracle = true;
  const ScenarioOutput out = run_scenario(spec);
  EXPECT_GT(out.metrics.observation_count(), 0u);
}

// Sharded + oracle: the oracle rides in the generator's records, which
// slice files do not carry, so a sharded oracle run keeps the single
// reader instead of throwing, and its metrics match a one-shard oracle run
// bit for bit.
TEST(PartitionReplay, OracleRunsFallBackToOneReader) {
  ScenarioSpec spec = make_scenario("planetlab");
  spec.workload.num_nodes = 16;
  spec.workload.duration_s = 300.0;
  spec.measurement.collect_oracle = true;
  spec.shards = 3;
  const ScenarioOutput sharded = run_scenario(spec);
  spec.shards = 1;
  const ScenarioOutput single = run_scenario(spec);
  EXPECT_GT(sharded.metrics.observation_count(), 0u);
  EXPECT_EQ(sharded.metrics.observation_count(),
            single.metrics.observation_count());
  EXPECT_EQ(sharded.metrics.median_relative_error(),
            single.metrics.median_relative_error());
}

TEST(RouteSchedules, ComposedScheduleRunsInBothModes) {
  for (const SimMode mode : {SimMode::kReplay, SimMode::kOnline}) {
    ScenarioSpec spec = make_scenario("planetlab");
    spec.mode = mode;
    spec.workload.num_nodes = 12;
    spec.workload.duration_s = 300.0;
    spec.workload.ping_interval_s = mode == SimMode::kOnline ? 5.0 : 1.0;
    apply_route_schedule(spec, "backbone-flap");
    EXPECT_FALSE(spec.workload.route_changes.empty());
    const auto out = run_scenario(spec);
    EXPECT_GT(out.metrics.observation_count(), 0u);
  }
}

}  // namespace
}  // namespace nc::eval
