// Dynamic shard ownership (DESIGN.md Sec. 14): the engine-level acceptance
// suite for epoch-barrier rebalancing. The contract is the kernel's usual
// one, extended across migrations — every metric and every coordinate is
// bit-identical for ANY --shards=W with rebalancing on or off, even though
// node state (link rows, estimator rows, metrics state, pending calendar
// events) physically moves between workers mid-run.
//
// This file is also the TSan stress target: CI builds it with
// -fsanitize=thread and runs it to pin the no-atomics weight-counter and
// migration-channel handoffs as race-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "eval/registry.hpp"
#include "eval/scenario.hpp"
#include "latency/trace.hpp"
#include "latency/trace_generator.hpp"
#include "sim/replay.hpp"
#include "sim/sharded_sim.hpp"

namespace nc::sim {
namespace {

// A workload with deliberate load skew: the lowest half of the ids sits out
// the first half of the run (staged-rollout override), so their home shards
// are nearly idle and the planner has something to fix.
lat::AvailabilityConfig staged_skew(int down_count, double join_s) {
  lat::AvailabilityConfig av;
  av.enabled = false;
  av.staged_down_count = down_count;
  av.staged_join_s = join_s;
  return av;
}

OnlineSimConfig online_config(double duration, int rebalance_every) {
  OnlineSimConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  c.ping_interval_s = 2.0;  // = the kernel's epoch length
  c.rebalance_interval_epochs = rebalance_every;
  c.rebalance_max_moves = 8;
  return c;
}

lat::Topology topology(int nodes) {
  lat::TopologyConfig tc;
  tc.num_nodes = nodes;
  tc.seed = 91;
  return lat::Topology::make(tc);
}

struct Result {
  std::vector<Coordinate> coords;
  std::uint64_t pings_sent = 0;
  std::uint64_t pings_lost = 0;
  std::uint64_t observations = 0;
  std::uint64_t app_updates = 0;
  std::uint64_t events = 0;
  double median_err = 0.0;
  double instability = 0.0;
  bool operator==(const Result&) const = default;
};

struct EngineRun {
  Result result;
  std::uint64_t migrated = 0;
  MemoryBudget memory;
};

EngineRun run_online(int shards, int rebalance_every, int nodes = 24,
               double duration = 600.0) {
  ShardedEngine sim(online_config(duration, rebalance_every), shards,
                    topology(nodes), lat::LinkModelConfig{},
                    staged_skew(nodes / 2, duration / 2.0));
  sim.run();
  EngineRun r;
  for (NodeId id = 0; id < sim.num_nodes(); ++id)
    r.result.coords.push_back(sim.client(id).system_coordinate());
  r.result.pings_sent = sim.pings_sent();
  r.result.pings_lost = sim.pings_lost();
  r.result.observations = sim.metrics().observation_count();
  r.result.app_updates = sim.metrics().total_app_updates();
  r.result.events = sim.events_processed();
  r.result.median_err = sim.metrics().median_relative_error();
  r.result.instability = sim.metrics().mean_instability_ms_per_s();
  r.migrated = sim.migrated_nodes();
  r.memory = sim.memory_budget();
  return r;
}

// The tentpole guarantee, online: rebalancing on at any W is bit-identical
// to one worker — and migrations genuinely happened, so the equality covers
// link rows, estimator rows and metrics state crossing shards.
TEST(Rebalance, OnlineBitIdenticalAcrossShardCountsWithMigration) {
  const EngineRun serial = run_online(1, 0);
  for (int shards : {2, 3, 4}) {
    const EngineRun r = run_online(shards, /*rebalance_every=*/2);
    EXPECT_EQ(r.result, serial.result) << "shards=" << shards;
    EXPECT_GT(r.migrated, 0u) << "shards=" << shards;
  }
}

// On vs. off at the same shard count: the partition's physical placement
// (which store holds each node's link row) must never leak into results.
TEST(Rebalance, OnVsOffBitIdenticalAtSameShardCount) {
  const EngineRun off = run_online(3, 0);
  const EngineRun on = run_online(3, 2);
  EXPECT_EQ(on.result, off.result);
  EXPECT_GT(on.migrated, 0u);
  EXPECT_EQ(off.migrated, 0u);
}

// Satellite: every kPong/kObs crosses exactly one epoch barrier (messages
// sent while processing epoch k deliver at k+1). With a decision every
// epoch, in-flight replies routinely target nodes that migrate at that very
// barrier — senders route with the post-move view, pending calendar events
// ship with the node, and the receiver installs before delivering. Equality
// with the serial run proves no reply was lost or double-delivered.
TEST(Rebalance, InFlightEventsFollowTheMigratedNode) {
  const auto run_with = [](int shards, int every) {
    OnlineSimConfig c = online_config(600.0, every);
    c.rebalance_max_moves = 16;
    ShardedEngine sim(c, shards, topology(24), lat::LinkModelConfig{},
                      staged_skew(12, 300.0));
    sim.run();
    std::vector<Coordinate> coords;
    for (NodeId id = 0; id < sim.num_nodes(); ++id)
      coords.push_back(sim.client(id).system_coordinate());
    return std::tuple{coords, sim.pings_sent(), sim.pings_lost(),
                      sim.metrics().observation_count(), sim.migrated_nodes()};
  };
  const auto serial = run_with(1, 0);
  const auto rebalanced = run_with(3, /*every=*/1);
  EXPECT_EQ(std::get<0>(rebalanced), std::get<0>(serial));
  EXPECT_EQ(std::get<1>(rebalanced), std::get<1>(serial));
  EXPECT_EQ(std::get<2>(rebalanced), std::get<2>(serial));
  EXPECT_EQ(std::get<3>(rebalanced), std::get<3>(serial));
  EXPECT_GT(std::get<4>(rebalanced), 0u);
}

// Drift-tracked nodes are pinned (their kTrack tick chain must not change
// hands mid-series); the merged drift output stays shard-count invariant
// while everything around them migrates.
TEST(Rebalance, DriftTrackedNodesArePinnedAndInvariant) {
  const auto drift_of = [](int shards, int every) {
    OnlineSimConfig c = online_config(600.0, every);
    c.tracked_nodes = {1, 17};  // land on different shards at W=3
    c.track_interval_s = 120.0;
    ShardedEngine sim(c, shards, topology(24), lat::LinkModelConfig{},
                      staged_skew(12, 300.0));
    sim.run();
    std::vector<std::pair<double, Vec>> points;
    for (NodeId id : {1, 17})
      for (const DriftPoint& p : sim.metrics().drift(id))
        points.emplace_back(p.t, p.position);
    return std::pair{points, sim.migrated_nodes()};
  };
  const auto serial = drift_of(1, 0);
  EXPECT_EQ(serial.first.size(), 10u);
  const auto rebalanced = drift_of(3, 2);
  EXPECT_EQ(rebalanced.first, serial.first);
  EXPECT_GT(rebalanced.second, 0u);
}

// The IDMS backend keeps a per-node delay-matrix row whose EWMA chains must
// survive migration byte-for-byte; run through the scenario engine with the
// idms backend preset.
TEST(Rebalance, IdmsBackendBitIdenticalAcrossMigration) {
  const auto run_with = [](int shards, int every) {
    eval::ScenarioSpec spec = eval::make_scenario("churn");
    spec.mode = eval::SimMode::kOnline;
    spec.workload.num_nodes = 32;
    spec.workload.duration_s = 600.0;
    spec.workload.ping_interval_s = 2.0;
    spec.measurement.measure_start_s = 300.0;
    eval::apply_backend(spec, "idms");
    spec.shards = shards;
    spec.rebalance_interval_epochs = every;
    const eval::ScenarioOutput out = eval::run_scenario(spec);
    return std::tuple{out.pings_sent, out.pings_lost,
                      out.metrics.observation_count(),
                      out.metrics.median_relative_error(),
                      out.estimator_stats.queries,
                      out.estimator_stats.direct_hits,
                      out.estimator_stats.fallback_hits};
  };
  // Churn availability is the load skew here: down nodes stop generating
  // events, so shard weights diverge and plans fire.
  const auto serial = run_with(1, 0);
  EXPECT_EQ(run_with(3, 2), serial);
  EXPECT_EQ(run_with(2, 4), serial);
}

// Replay mode: same kernel, same guarantee — the record stream re-routes to
// each node's current owner across migrations.
TEST(Rebalance, ReplayBitIdenticalWithMigration) {
  lat::TraceGenConfig tc;
  tc.topology.num_nodes = 24;
  tc.duration_s = 600.0;
  tc.seed = 71;
  // Churn keeps per-node record counts (and thus shard weights) uneven.
  const auto run_with = [&](int shards, int every) {
    lat::TraceGenerator gen(tc);
    ReplayConfig rc;
    rc.client.vivaldi.dim = 3;
    rc.client.heuristic = HeuristicConfig::always();
    rc.duration_s = 600.0;
    rc.measure_start_s = 300.0;
    rc.shards = shards;
    rc.rebalance_interval_epochs = every;
    rc.rebalance_max_moves = 16;
    ReplayDriver driver(rc, gen.num_nodes());
    driver.run(gen);
    std::vector<Coordinate> coords;
    for (NodeId id = 0; id < driver.num_nodes(); ++id)
      coords.push_back(driver.client(id).system_coordinate());
    return std::pair{std::tuple{coords, driver.metrics().observation_count(),
                                driver.events_processed(),
                                driver.metrics().median_relative_error()},
                     driver.migrated_nodes()};
  };
  const auto serial = run_with(1, 0);
  for (int shards : {2, 3}) {
    const auto r = run_with(shards, 2);
    EXPECT_EQ(r.first, serial.first) << "shards=" << shards;
    EXPECT_GT(r.second, 0u) << "shards=" << shards;
  }
}

// Parallel trace ingest composes with rebalancing: slices stay split by the
// STATIC partition (that is how partition_trace wrote them), while delivery
// re-routes each record to the node's current owner.
TEST(Rebalance, PartitionedReplayComposesWithRebalance) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/rebalance-part";
  const std::string whole = prefix + ".nctr";
  lat::TraceGenConfig tc;
  tc.topology.num_nodes = 24;
  tc.duration_s = 600.0;
  tc.seed = 71;
  lat::generate_trace_file(tc, whole);

  const auto result_of = [](ReplayDriver& driver) {
    std::vector<Coordinate> coords;
    for (NodeId id = 0; id < driver.num_nodes(); ++id)
      coords.push_back(driver.client(id).system_coordinate());
    return std::tuple{coords, driver.metrics().observation_count(),
                      driver.events_processed()};
  };
  ReplayConfig rc;
  rc.client.vivaldi.dim = 3;
  rc.client.heuristic = HeuristicConfig::always();
  rc.duration_s = 600.0;
  rc.measure_start_s = 300.0;
  rc.rebalance_interval_epochs = 2;
  rc.rebalance_max_moves = 16;

  lat::TraceReader ref_src(whole);
  rc.shards = 1;
  ReplayDriver ref(rc, ref_src.num_nodes());
  ref.run(ref_src);
  const auto expected = result_of(ref);

  for (int shards : {2, 3}) {
    lat::TraceReader src(whole);
    const auto paths =
        lat::partition_trace(src, prefix, src.num_nodes(), shards);
    std::vector<std::unique_ptr<lat::TraceReader>> slices;
    std::vector<lat::TraceSource*> sources;
    for (const std::string& p : paths) {
      slices.push_back(std::make_unique<lat::TraceReader>(p));
      sources.push_back(slices.back().get());
    }
    rc.shards = shards;
    ReplayDriver driver(rc, ref_src.num_nodes());
    driver.run_partitioned(sources);
    EXPECT_EQ(result_of(driver), expected) << "shards=" << shards;
    EXPECT_GT(driver.migrated_nodes(), 0u) << "shards=" << shards;
  }
}

// Satellite: migration buffers show up in the memory budget. The high-water
// accounting only exists when hand-offs happened.
TEST(Rebalance, MemoryBudgetAccountsMigrationBuffers) {
  const EngineRun off = run_online(2, 0);
  const EngineRun on = run_online(2, 2);
  EXPECT_GT(on.migrated, 0u);
  EXPECT_GT(on.memory.rebalance_bytes, off.memory.rebalance_bytes);
  // rebalance_bytes participates in the reported total.
  EXPECT_GE(on.memory.total(), on.memory.rebalance_bytes);
}

// Per-shard busy time is measured whenever the engine runs; the bench's
// utilization spread is built from it.
TEST(Rebalance, ReportsPerShardBusyTime) {
  ShardedEngine sim(online_config(120.0, 2), 3, topology(12),
                    lat::LinkModelConfig{}, staged_skew(6, 60.0));
  sim.run();
  ASSERT_EQ(sim.shard_busy_seconds().size(), 3u);
  for (double s : sim.shard_busy_seconds()) EXPECT_GE(s, 0.0);
}

TEST(Rebalance, RejectsBadConfigs) {
  OnlineSimConfig bad = online_config(60.0, -1);
  EXPECT_THROW(ShardedEngine(bad, 2, topology(8), lat::LinkModelConfig{},
                             staged_skew(0, 0.0)),
               CheckError);
  OnlineSimConfig bad_moves = online_config(60.0, 2);
  bad_moves.rebalance_max_moves = -1;
  EXPECT_THROW(ShardedEngine(bad_moves, 2, topology(8), lat::LinkModelConfig{},
                             staged_skew(0, 0.0)),
               CheckError);
}

}  // namespace
}  // namespace nc::sim
