#include "latency/link_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace nc::lat {
namespace {

LatencyNetwork make_network(int nodes = 10, std::uint64_t seed = 5,
                            LinkModelConfig lm = {},
                            AvailabilityConfig av = {.enabled = false}) {
  TopologyConfig tc;
  tc.num_nodes = nodes;
  tc.seed = seed;
  return LatencyNetwork(Topology::make(tc), lm, av, seed);
}

TEST(LatencyNetwork, RejectsSelfPing) {
  auto net = make_network();
  EXPECT_THROW((void)net.sample_rtt(1, 1, 0.0), CheckError);
}

// A bad endpoint would index past the link store's rows or columns (and a
// self-link has no undirected row): every entry point must reject them.
TEST(LatencyNetwork, RejectsBadLinkEndpoints) {
  auto net = make_network(10);
  EXPECT_THROW((void)net.ground_truth_rtt(3, 3, 0.0), CheckError);
  EXPECT_THROW(net.force_route_change(0, 99, 2.0, 0.0), CheckError);
  EXPECT_THROW(net.force_route_change(-1, 2, 2.0, 0.0), CheckError);
  EXPECT_THROW(net.schedule_route_change(5, 5, 2.0, 1.0), CheckError);
}

TEST(LatencyNetwork, DeterministicBySeed) {
  auto a = make_network(10, 77);
  auto b = make_network(10, 77);
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.5;
    ASSERT_EQ(a.sample_rtt(0, 1, t), b.sample_rtt(0, 1, t));
  }
}

TEST(LatencyNetwork, DifferentSeedsDiffer) {
  auto a = make_network(10, 77);
  auto b = make_network(10, 78);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    const auto ra = a.sample_rtt(0, 1, i * 1.0);
    const auto rb = b.sample_rtt(0, 1, i * 1.0);
    if (ra.has_value() && rb.has_value() && *ra == *rb) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(LatencyNetwork, BodyTracksBaseRtt) {
  LinkModelConfig lm;
  lm.base_spike_prob = 0.0;
  lm.burst_spike_prob = 0.0;
  lm.node_burst_rate_hz = 0.0;  // handled below: rate 0 => never
  lm.link_burst_rate_hz = 1e-12;
  lm.node_burst_rate_hz = 1e-12;
  lm.route_change_rate_hz = 1e-12;
  lm.loss_prob = 0.0;
  auto net = make_network(6, 9, lm);
  const double base = net.topology().base_rtt_ms(0, 1);
  double sum = 0.0;
  int n = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto r = net.sample_rtt(0, 1, i * 1.0);
    ASSERT_TRUE(r.has_value());
    ASSERT_GT(*r, 0.0);
    sum += *r;
    ++n;
  }
  EXPECT_NEAR(sum / n, base, base * 0.02);  // unit-mean jitter
}

TEST(LatencyNetwork, LossRateMatchesConfig) {
  LinkModelConfig lm;
  lm.loss_prob = 0.2;
  auto net = make_network(6, 11, lm);
  int lost = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i)
    if (!net.sample_rtt(0, 1, i * 1.0).has_value()) ++lost;
  EXPECT_NEAR(lost / static_cast<double>(trials), 0.2, 0.02);
}

TEST(LatencyNetwork, SpikesProduceHeavyTail) {
  LinkModelConfig lm;
  lm.base_spike_prob = 0.05;  // exaggerated for the test
  lm.loss_prob = 0.0;
  auto net = make_network(6, 13, lm);
  const double base = net.topology().base_rtt_ms(0, 1);
  int spikes = 0;
  double maxv = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double r = *net.sample_rtt(0, 1, i * 0.1);
    if (r > base * 2.0 + 100.0) ++spikes;
    maxv = std::max(maxv, r);
    ASSERT_LE(r, lm.rtt_cap_ms);
  }
  EXPECT_GT(spikes, 300);           // roughly 5% of 20k, spread over time
  EXPECT_GT(maxv, base + 1000.0);   // the tail reaches orders of magnitude
}

TEST(LatencyNetwork, RttCapRespected) {
  LinkModelConfig lm;
  lm.base_spike_prob = 1.0;  // every sample spikes
  lm.spike_alpha = 0.5;      // brutal tail
  lm.rtt_cap_ms = 5000.0;
  lm.loss_prob = 0.0;
  auto net = make_network(4, 15, lm);
  for (int i = 0; i < 1000; ++i) ASSERT_LE(*net.sample_rtt(0, 1, i * 1.0), 5000.0);
}

TEST(LatencyNetwork, GroundTruthFollowsRouteChanges) {
  LinkModelConfig lm;
  lm.route_change_rate_hz = 1.0 / 50.0;  // fast for the test
  auto net = make_network(6, 17, lm);
  const double g0 = net.ground_truth_rtt(0, 1, 0.0);
  bool changed = false;
  for (int i = 1; i <= 100 && !changed; ++i)
    changed = std::fabs(net.ground_truth_rtt(0, 1, i * 10.0) - g0) > 1e-9;
  EXPECT_TRUE(changed);
}

TEST(LatencyNetwork, ForcedRouteChangeAppliesAndFreezes) {
  auto net = make_network(6, 19);
  const double before = net.ground_truth_rtt(0, 1, 0.0);
  net.force_route_change(0, 1, 2.0, 1.0);
  const double after = net.ground_truth_rtt(0, 1, 2.0);
  EXPECT_NEAR(after, net.topology().base_rtt_ms(0, 1) * 2.0, 1e-9);
  EXPECT_NE(before, after);
  // Frozen: stays at the forced factor arbitrarily far in the future.
  EXPECT_EQ(net.ground_truth_rtt(0, 1, 1e6), after);
}

TEST(LatencyNetwork, ScheduledRouteChangeWaitsForItsTime) {
  auto net = make_network(6, 21);
  net.schedule_route_change(0, 1, 3.0, 100.0);
  const double base = net.topology().base_rtt_ms(0, 1);
  EXPECT_NEAR(net.ground_truth_rtt(0, 1, 50.0), base, 1e-9);
  EXPECT_NEAR(net.ground_truth_rtt(0, 1, 100.0), base * 3.0, 1e-9);
  EXPECT_NEAR(net.ground_truth_rtt(0, 1, 200.0), base * 3.0, 1e-9);
}

TEST(LatencyNetwork, TimeMustNotGoBackwards) {
  auto net = make_network(6, 23);
  (void)net.sample_rtt(0, 1, 100.0);
  EXPECT_THROW((void)net.sample_rtt(0, 1, 50.0), CheckError);
}

TEST(LatencyNetwork, AvailabilityTogglesNodes) {
  AvailabilityConfig av;
  av.enabled = true;
  av.mean_up_s = 100.0;
  av.mean_down_s = 100.0;
  av.initial_up_prob = 1.0;
  auto net = make_network(8, 25, {}, av);
  int up = 0, checks = 0;
  for (int i = 0; i < 400; ++i) {
    if (net.node_up(0, i * 10.0)) ++up;
    ++checks;
  }
  // With equal up/down means the duty cycle is ~50%; allow wide slack.
  EXPECT_GT(up, checks / 10);
  EXPECT_LT(up, checks * 9 / 10);
}

TEST(LatencyNetwork, DisabledAvailabilityKeepsNodesUp) {
  auto net = make_network(8, 27, {}, {.enabled = false});
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(net.node_up(3, i * 100.0));
}

TEST(LatencyNetwork, PingToDownNodeIsLost) {
  AvailabilityConfig av;
  av.enabled = true;
  av.mean_up_s = 1e-3;  // node flaps down almost immediately
  av.mean_down_s = 1e9;
  av.initial_up_prob = 1.0;
  LinkModelConfig lm;
  lm.loss_prob = 0.0;
  auto net = make_network(4, 29, lm, av);
  (void)net.node_up(1, 0.0);
  EXPECT_FALSE(net.sample_rtt(0, 1, 1000.0).has_value());
}

TEST(LatencyNetwork, NoiselessModeIsAStaticLatencyMatrix) {
  // The original Vivaldi evaluation's world: every sample returns exactly
  // the base RTT, forever.
  auto net = make_network(8, 41, LinkModelConfig::noiseless());
  const double base01 = net.topology().base_rtt_ms(0, 1);
  for (int i = 0; i < 500; ++i) {
    const auto r = net.sample_rtt(0, 1, i * 1.0);
    ASSERT_TRUE(r.has_value());
    ASSERT_DOUBLE_EQ(*r, base01);
  }
  // And over a long horizon: no route changes either.
  ASSERT_DOUBLE_EQ(*net.sample_rtt(0, 1, 1e6), base01);
  EXPECT_EQ(net.loss_count(), 0u);
}

TEST(LatencyNetwork, CountersTrackSamplesAndLosses) {
  LinkModelConfig lm;
  lm.loss_prob = 0.5;
  auto net = make_network(4, 31, lm);
  for (int i = 0; i < 100; ++i) (void)net.sample_rtt(0, 1, i * 1.0);
  EXPECT_EQ(net.sample_count(), 100u);
  EXPECT_GT(net.loss_count(), 20u);
  EXPECT_LT(net.loss_count(), 80u);
}

}  // namespace
}  // namespace nc::lat
