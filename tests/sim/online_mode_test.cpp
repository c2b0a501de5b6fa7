// The online deployment protocol (paper Sec. VI) on ShardedEngine at one
// shard: convergence, gossip, determinism, churn, drift tracking and config
// validation. Each run builds its engine from a LatencyNetwork's topology,
// link and availability configs.
#include "sim/sharded_sim.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace nc::sim {
namespace {

lat::LatencyNetwork small_network(int nodes = 20, std::uint64_t seed = 81) {
  lat::TopologyConfig tc;
  tc.num_nodes = nodes;
  tc.seed = seed;
  lat::AvailabilityConfig av;
  av.enabled = false;
  return lat::LatencyNetwork(lat::Topology::make(tc), lat::LinkModelConfig{}, av, seed);
}

/// One-shard online engine over `net`'s network model.
ShardedEngine one_shard(const OnlineSimConfig& config,
                        const lat::LatencyNetwork& net) {
  return ShardedEngine(config, 1, net.topology(), net.link_config(),
                       net.availability());
}

OnlineSimConfig small_config(double duration = 900.0) {
  OnlineSimConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  c.ping_interval_s = 2.0;
  return c;
}

TEST(OnlineMode, RunsAndConverges) {
  auto net = small_network();
  ShardedEngine sim = one_shard(small_config(), net);
  sim.run();
  EXPECT_GT(sim.pings_sent(), 1000u);
  EXPECT_GT(sim.metrics().observation_count(), 500u);
  EXPECT_LT(sim.metrics().median_relative_error(), 0.3);
}

TEST(OnlineMode, RunTwiceRejected) {
  auto net = small_network();
  ShardedEngine sim = one_shard(small_config(60.0), net);
  sim.run();
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(OnlineMode, GossipSpreadsMembership) {
  auto net = small_network(20);
  OnlineSimConfig c = small_config(900.0);
  c.bootstrap_degree = 1;  // minimal seed knowledge
  ShardedEngine sim = one_shard(c, net);
  sim.run();
  // Every node should know far more peers than it was bootstrapped with.
  int grew = 0;
  for (NodeId id = 0; id < sim.num_nodes(); ++id)
    if (sim.neighbors(id).size() >= 5) ++grew;
  EXPECT_GT(grew, sim.num_nodes() * 3 / 4);
}

TEST(OnlineMode, DeterministicBySeed) {
  const auto run_once = [] {
    auto net = small_network(12, 83);
    ShardedEngine sim = one_shard(small_config(300.0), net);
    sim.run();
    return std::tuple{sim.pings_sent(), sim.metrics().observation_count(),
                      sim.metrics().median_relative_error()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(OnlineMode, IdenticalWorkloadAcrossClientConfigs) {
  // The paper runs filtered and unfiltered coordinate systems side by side
  // on the same hosts. Same seed + same network seed => identical pings and
  // RTT streams regardless of the client configuration.
  const auto pings_with = [](FilterConfig f) {
    auto net = small_network(12, 85);
    OnlineSimConfig c = small_config(300.0);
    c.client.filter = f;
    ShardedEngine sim = one_shard(c, net);
    sim.run();
    return std::pair{sim.pings_sent(), sim.pings_lost()};
  };
  EXPECT_EQ(pings_with(FilterConfig::moving_percentile(4, 25)),
            pings_with(FilterConfig::none()));
}

TEST(OnlineMode, LossyNetworkStillConverges) {
  lat::TopologyConfig tc;
  tc.num_nodes = 16;
  tc.seed = 87;
  lat::LinkModelConfig lm;
  lm.loss_prob = 0.15;
  lat::AvailabilityConfig av;
  av.enabled = false;
  lat::LatencyNetwork net(lat::Topology::make(tc), lm, av, 87);
  ShardedEngine sim = one_shard(small_config(900.0), net);
  sim.run();
  EXPECT_GT(sim.pings_lost(), 0u);
  EXPECT_LT(sim.metrics().median_relative_error(), 0.4);
}

TEST(OnlineMode, ChurnedNodesDoNotPingWhileDown) {
  lat::TopologyConfig tc;
  tc.num_nodes = 10;
  tc.seed = 89;
  lat::AvailabilityConfig av;
  av.enabled = true;
  av.initial_up_prob = 0.5;
  av.mean_up_s = 1e9;
  av.mean_down_s = 1e9;
  lat::LatencyNetwork net(lat::Topology::make(tc), lat::LinkModelConfig{}, av, 89);
  ShardedEngine sim = one_shard(small_config(300.0), net);
  sim.run();
  // Roughly half the nodes are permanently down: ping volume is well below
  // the all-up expectation of ~10 * 150.
  EXPECT_LT(sim.pings_sent(), 10u * 150u * 3u / 4u);
}

TEST(OnlineMode, TracksDrift) {
  auto net = small_network(8);
  OnlineSimConfig c = small_config(600.0);
  c.tracked_nodes = {1};
  c.track_interval_s = 120.0;
  ShardedEngine sim = one_shard(c, net);
  sim.run();
  EXPECT_GE(sim.metrics().drift(1).size(), 3u);
}

TEST(OnlineMode, DriftSeriesCoversTheWholeRun) {
  auto net = small_network(8);
  OnlineSimConfig c = small_config(600.0);
  c.tracked_nodes = {1};
  c.track_interval_s = 250.0;
  ShardedEngine sim = one_shard(c, net);
  sim.run();
  // Interior samples at 250 and 500 plus the final flush at duration_s.
  const auto& d = sim.metrics().drift(1);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d.back().t, 600.0);
}

TEST(OnlineMode, NonPositiveTrackIntervalRejected) {
  // Used to spin forever inside maybe_track (next_track_t_ += 0).
  auto net = small_network(8);
  OnlineSimConfig c = small_config(300.0);
  c.tracked_nodes = {1};
  c.track_interval_s = 0.0;
  EXPECT_THROW((void)one_shard(c, net), CheckError);
}

TEST(OnlineMode, BootstrapDegreeCountsDistinctPeers) {
  // With 8 nodes and degree 5 duplicate draws are near-certain; every node
  // must still start with exactly 5 DISTINCT live peers (the constructor
  // used to count duplicates toward the degree and under-connect).
  auto net = small_network(8);
  OnlineSimConfig c = small_config(60.0);
  c.bootstrap_degree = 5;
  ShardedEngine sim = one_shard(c, net);
  for (NodeId id = 0; id < sim.num_nodes(); ++id) {
    EXPECT_EQ(sim.neighbors(id).size(), 5u) << "node " << id;
    EXPECT_FALSE(sim.neighbors(id).contains(id)) << "node " << id;
  }
}

TEST(OnlineMode, BootstrapDegreeMustLeaveANonPeer) {
  // degree >= n can never find enough distinct peers: reject instead of
  // looping forever in the constructor.
  auto net = small_network(8);
  OnlineSimConfig c = small_config(60.0);
  c.bootstrap_degree = 8;
  EXPECT_THROW((void)one_shard(c, net), CheckError);
}

}  // namespace
}  // namespace nc::sim
