// Snapshot publication out of the epoch-sharded engine: the concurrent-
// reader seam (estimate/snapshot.hpp) and its two load-bearing guarantees —
// publication changes NO metric bit at any shard count, and readers on
// other threads see only complete, monotonically-versioned snapshots. The
// concurrent tests here are the CI ThreadSanitizer targets.
#include "estimate/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "eval/registry.hpp"
#include "eval/scenario.hpp"
#include "latency/trace_generator.hpp"
#include "sim/sharded_sim.hpp"

namespace nc::sim {
namespace {

OnlineSimConfig small_config(double duration = 600.0) {
  OnlineSimConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  c.ping_interval_s = 2.0;
  return c;
}

lat::Topology small_topology(int nodes = 24, std::uint64_t seed = 91) {
  lat::TopologyConfig tc;
  tc.num_nodes = nodes;
  tc.seed = seed;
  return lat::Topology::make(tc);
}

lat::AvailabilityConfig all_up() {
  lat::AvailabilityConfig av;
  av.enabled = false;
  return av;
}

lat::TraceGenConfig small_trace(int nodes = 24, double duration = 600.0) {
  lat::TraceGenConfig tc;
  tc.topology.num_nodes = nodes;
  tc.topology.seed = 91;
  tc.duration_s = duration;
  tc.seed = 7;
  return tc;
}

// Everything a run can disagree on, collapsed into one comparable value.
struct RunDigest {
  std::vector<Coordinate> coords;
  std::uint64_t observations = 0;
  std::uint64_t app_updates = 0;
  double median_err = 0.0;
  double instability = 0.0;

  bool operator==(const RunDigest& o) const {
    return coords == o.coords && observations == o.observations &&
           app_updates == o.app_updates && median_err == o.median_err &&
           instability == o.instability;
  }
};

RunDigest digest(ShardedEngine& sim) {
  RunDigest d;
  for (NodeId id = 0; id < sim.num_nodes(); ++id)
    d.coords.push_back(sim.client(id).system_coordinate());
  d.observations = sim.metrics().observation_count();
  d.app_updates = sim.metrics().total_app_updates();
  d.median_err = sim.metrics().median_relative_error();
  d.instability = sim.metrics().mean_instability_ms_per_s();
  return d;
}

// ISSUE 8's acceptance gate: with publication ON the engine produces
// bit-identical metrics and coordinates to publication OFF, at every shard
// count, in online mode.
TEST(SnapshotPublication, OnlineBitIdenticalOnVsOff) {
  const auto run_with = [](int shards, bool publish) {
    OnlineSimConfig c = small_config();
    c.publish_snapshots = publish;
    ShardedEngine sim(c, shards, small_topology(), lat::LinkModelConfig{},
                      all_up());
    sim.run();
    return digest(sim);
  };
  const RunDigest off = run_with(1, false);
  for (const int shards : {1, 2, 4}) {
    EXPECT_EQ(off, run_with(shards, false)) << "shards=" << shards;
    EXPECT_EQ(off, run_with(shards, true)) << "shards=" << shards;
  }
}

// Same gate in replay mode (and at a coarser publication cadence — the
// interval only changes how often a snapshot appears, never the run).
TEST(SnapshotPublication, ReplayBitIdenticalOnVsOff) {
  const auto run_with = [](int shards, bool publish, int interval) {
    ReplayConfig rc;
    rc.duration_s = 600.0;
    rc.measure_start_s = 300.0;
    rc.shards = shards;
    rc.publish_snapshots = publish;
    rc.snapshot_interval_epochs = interval;
    lat::TraceGenerator gen(small_trace());
    ShardedEngine sim(rc, gen.num_nodes());
    sim.run(gen);
    return digest(sim);
  };
  const RunDigest off = run_with(1, false, 1);
  for (const int shards : {1, 2, 4}) {
    EXPECT_EQ(off, run_with(shards, false, 1)) << "shards=" << shards;
    EXPECT_EQ(off, run_with(shards, true, 1)) << "shards=" << shards;
    EXPECT_EQ(off, run_with(shards, true, 7)) << "shards=" << shards;
  }
}

// The final published snapshot IS the end-of-run client state, and the
// published content is itself shard-count-invariant.
TEST(SnapshotPublication, FinalSnapshotMatchesClientState) {
  const auto final_nodes = [](int shards) {
    OnlineSimConfig c = small_config(400.0);
    c.publish_snapshots = true;
    ShardedEngine sim(c, shards, small_topology(), lat::LinkModelConfig{},
                      all_up());
    sim.run();
    const auto snap = sim.snapshot_publisher().latest();
    EXPECT_NE(snap, nullptr);
    EXPECT_EQ(snap->t_s, 400.0);
    EXPECT_EQ(snap->version, sim.snapshot_publisher().published());
    EXPECT_EQ(snap->num_nodes(), sim.num_nodes());
    for (NodeId id = 0; id < sim.num_nodes(); ++id) {
      const est::SnapshotNode& slot =
          snap->nodes[static_cast<std::size_t>(id)];
      EXPECT_EQ(slot.app, sim.client(id).application_coordinate()) << id;
      // Published error/confidence describe the published coordinate: the
      // app-level pair frozen at its last update, not the live Vivaldi
      // estimate (which keeps moving between app updates).
      EXPECT_EQ(slot.error, sim.client(id).app_error()) << id;
      EXPECT_EQ(slot.confidence, sim.client(id).app_confidence()) << id;
    }
    return snap->nodes;
  };
  const std::vector<est::SnapshotNode> one = final_nodes(1);
  const std::vector<est::SnapshotNode> three = final_nodes(3);
  ASSERT_EQ(one.size(), three.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].app, three[i].app) << i;
    EXPECT_EQ(one[i].error, three[i].error) << i;
    EXPECT_EQ(one[i].confidence, three[i].confidence) << i;
    EXPECT_EQ(one[i].up, three[i].up) << i;
  }
}

// Versions are dense (published() == latest version), and a coarser
// interval publishes fewer, but always at least the end-of-run snapshot.
TEST(SnapshotPublication, VersionsDenseAndIntervalRespected) {
  const auto published = [](int interval) {
    OnlineSimConfig c = small_config(400.0);
    c.publish_snapshots = true;
    c.snapshot_interval_epochs = interval;
    ShardedEngine sim(c, 2, small_topology(), lat::LinkModelConfig{},
                      all_up());
    sim.run();
    const auto snap = sim.snapshot_publisher().latest();
    EXPECT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, sim.snapshot_publisher().published());
    return sim.snapshot_publisher().published();
  };
  const std::uint64_t dense = published(1);
  const std::uint64_t sparse = published(10);
  // 400 s at 2 s epochs: ~200 staged epochs + the final snapshot.
  EXPECT_GT(dense, 100u);
  EXPECT_LT(sparse, dense / 2);
  EXPECT_GE(sparse, 1u);
}

// The concurrent-reader stress test (the CI TSan job runs this binary):
// reader threads hammer latest() while the shard workers run, verifying
// snapshots are complete (every slot either unplaced or carrying finite
// state) and versions never go backwards. Readers deliberately hold the
// previous snapshot so retired buffers are recycled from a reader thread.
TEST(SnapshotPublication, ConcurrentReadersDuringRun) {
  OnlineSimConfig c = small_config(600.0);
  c.publish_snapshots = true;
  ShardedEngine sim(c, 2, small_topology(32), lat::LinkModelConfig{},
                    all_up());

  std::atomic<bool> stop{false};
  std::atomic<bool> monotonic{true};
  std::atomic<std::uint64_t> reads{0};
  const auto reader = [&] {
    std::uint64_t last_version = 0;
    std::shared_ptr<const est::EpochSnapshot> prev;
    double sink = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      // published() >= v must imply latest() returns version >= v.
      const std::uint64_t floor = sim.snapshot_publisher().published();
      const std::shared_ptr<const est::EpochSnapshot> snap =
          sim.snapshot_publisher().latest();
      if (snap == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (snap->version < last_version || snap->version < floor)
        monotonic.store(false, std::memory_order_relaxed);
      last_version = snap->version;
      for (const est::SnapshotNode& node : snap->nodes)
        if (node.placed()) sink += node.error + node.confidence;
      prev = snap;
      reads.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    // Keep the summed reads observable so the loop cannot be elided.
    EXPECT_GE(sink, 0.0);
  };

  std::thread r1(reader);
  std::thread r2(reader);
  sim.run();
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_TRUE(monotonic.load());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(sim.snapshot_publisher().published(), 0u);
}

// The snapshot estimator backend wired through the engine: --backend
// snapshot runs must themselves be shard-count invariant (every shard
// scores against the same published version each epoch).
TEST(SnapshotPublication, SnapshotBackendMetricsShardInvariant) {
  eval::ScenarioSpec spec = eval::make_scenario("planetlab");
  spec.mode = eval::SimMode::kOnline;
  spec.workload.num_nodes = 32;
  spec.workload.duration_s = 600.0;
  spec.workload.ping_interval_s = 2.0;
  spec.measurement.measure_start_s = 300.0;
  eval::apply_backend(spec, "snapshot");

  spec.shards = 1;
  const eval::ScenarioOutput a = eval::run_scenario(spec);
  spec.shards = 3;
  const eval::ScenarioOutput b = eval::run_scenario(spec);

  EXPECT_EQ(a.pings_sent, b.pings_sent);
  EXPECT_EQ(a.metrics.observation_count(), b.metrics.observation_count());
  EXPECT_EQ(a.metrics.median_relative_error(),
            b.metrics.median_relative_error());
  EXPECT_EQ(a.estimator_stats.queries, b.estimator_stats.queries);
  EXPECT_EQ(a.estimator_stats.direct_hits, b.estimator_stats.direct_hits);
  EXPECT_EQ(a.estimator_stats.fallback_hits, b.estimator_stats.fallback_hits);
  EXPECT_EQ(a.estimator_stats.misses, b.estimator_stats.misses);
  // The backend actually answered from snapshots, not only the fallback.
  EXPECT_GT(a.estimator_stats.direct_hits, 0u);
  // Snapshot buffers are accounted in the engine's memory budget.
  EXPECT_GT(a.memory.snapshot_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Delta publication (ISSUE 10): churn-proportional snapshots must be
// OBSERVATIONALLY IDENTICAL to full publication — same metrics bit for bit
// at any shard count, and any reconstructed view equal to the full snapshot
// slot for slot — while shipping O(changed) bytes per publish.
// ---------------------------------------------------------------------------

// Bit-identity gate, online mode: deltas on == deltas off == publication
// off, at every shard count.
TEST(SnapshotDeltas, OnlineBitIdenticalOnVsOff) {
  const auto run_with = [](int shards, bool publish, bool deltas) {
    OnlineSimConfig c = small_config();
    c.publish_snapshots = publish;
    c.snapshot_deltas = deltas;
    c.snapshot_base_interval = 8;
    ShardedEngine sim(c, shards, small_topology(), lat::LinkModelConfig{},
                      all_up());
    sim.run();
    return digest(sim);
  };
  const RunDigest off = run_with(1, false, false);
  for (const int shards : {1, 2, 4}) {
    EXPECT_EQ(off, run_with(shards, true, true)) << "shards=" << shards;
  }
}

// Bit-identity gate, replay mode, including a coarse publication cadence.
TEST(SnapshotDeltas, ReplayBitIdenticalOnVsOff) {
  const auto run_with = [](int shards, bool deltas, int interval) {
    ReplayConfig rc;
    rc.duration_s = 600.0;
    rc.measure_start_s = 300.0;
    rc.shards = shards;
    rc.publish_snapshots = true;
    rc.snapshot_interval_epochs = interval;
    rc.snapshot_deltas = deltas;
    rc.snapshot_base_interval = 5;
    lat::TraceGenerator gen(small_trace());
    ShardedEngine sim(rc, gen.num_nodes());
    sim.run(gen);
    return digest(sim);
  };
  const RunDigest off = run_with(1, false, 1);
  for (const int shards : {1, 2, 4}) {
    EXPECT_EQ(off, run_with(shards, true, 1)) << "shards=" << shards;
    EXPECT_EQ(off, run_with(shards, true, 7)) << "shards=" << shards;
  }
}

// The final published state under deltas equals full publication's, slot
// for slot (the end-of-run publish always ships a base), and a SnapshotView
// reconstructs exactly that — at every shard count. Deltas actually carried
// the churn: base publishes are a small fraction of all publishes.
TEST(SnapshotDeltas, FinalViewMatchesFullPublication) {
  const auto final_nodes = [](int shards, bool deltas) {
    OnlineSimConfig c = small_config(400.0);
    c.publish_snapshots = true;
    c.snapshot_deltas = deltas;
    c.snapshot_base_interval = 16;
    ShardedEngine sim(c, shards, small_topology(), lat::LinkModelConfig{},
                      all_up());
    sim.run();
    const est::SnapshotPublisher& pub = sim.snapshot_publisher();
    const auto snap = pub.latest();
    EXPECT_NE(snap, nullptr);
    EXPECT_EQ(snap->t_s, 400.0);
    if (deltas) {
      EXPECT_LT(pub.base_publishes(), pub.published() / 4);
      EXPECT_GT(pub.published_delta_bytes(), 0u);
      // A fresh reader reconstructs the final view: one base rebuild plus
      // the (empty-or-not) chain tail, equal to the published base.
      est::SnapshotView view(&pub);
      const est::EpochSnapshot* rec = view.refresh();
      EXPECT_NE(rec, nullptr);
      if (rec != nullptr) {
        EXPECT_EQ(rec->version, pub.published());
        EXPECT_EQ(rec->nodes, snap->nodes);
      }
    }
    return snap->nodes;
  };
  const std::vector<est::SnapshotNode> full = final_nodes(1, false);
  for (const int shards : {1, 3}) {
    const std::vector<est::SnapshotNode> delta = final_nodes(shards, true);
    ASSERT_EQ(full.size(), delta.size());
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_TRUE(full[i] == delta[i]) << "slot " << i << " shards " << shards;
  }
}

// The snapshot estimator backend answers THROUGH a SnapshotView now; with
// deltas on, every engine-internal query must see exactly the view full
// publication would give it: identical metrics AND identical coverage
// counters, deltas on vs off, at multiple shard counts.
TEST(SnapshotDeltas, SnapshotBackendIdenticalOnVsOff) {
  const auto run_with = [](int shards, bool deltas) {
    OnlineSimConfig c = small_config();
    c.estimator.backend = est::EstimatorBackend::kSnapshot;
    c.snapshot_deltas = deltas;
    c.snapshot_base_interval = 8;
    ShardedEngine sim(c, shards, small_topology(32), lat::LinkModelConfig{},
                      all_up());
    sim.run();
    return std::make_tuple(digest(sim), sim.estimator_stats().queries,
                           sim.estimator_stats().direct_hits,
                           sim.estimator_stats().fallback_hits,
                           sim.estimator_stats().misses);
  };
  const auto off = run_with(1, false);
  EXPECT_GT(std::get<2>(off), 0u);  // snapshots actually answered queries
  for (const int shards : {1, 3}) {
    EXPECT_EQ(off, run_with(shards, true)) << "shards=" << shards;
  }
}

// Reader-lag boundaries, driven directly against the publisher: a reader
// within the retained chain (at most one base behind) catches up applying
// deltas only; a reader further behind rebuilds from the newest base. In
// both cases the reconstruction matches the reference state slot for slot.
class DeltaDriver {
 public:
  DeltaDriver(int n, int base_interval, int lanes)
      : lanes_(lanes), state_(static_cast<std::size_t>(n)) {
    pub.enable_deltas(base_interval, lanes);
    for (int i = 0; i < n; ++i) set(i, 0.0);
  }

  /// Gives slot i a placed coordinate encoding `value` (and a derived
  /// error), marking it dirty for the next publish.
  void set(int i, double value) {
    Vec v = Vec::zero(3);
    v[0] = value;
    v[1] = static_cast<double>(i);
    est::SnapshotNode n;
    n.app = Coordinate(v);
    n.error = 0.25 + value / 1024.0;
    n.confidence = 1.0 - n.error;
    n.up = 1;
    state_[static_cast<std::size_t>(i)] = n;
  }

  /// Engine-shaped publish: diff state against the last-published mirror
  /// into round-robin lanes, stage a full buffer when the publisher asks
  /// for a base, publish.
  void publish_next() {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (mirror_.size() < state_.size()) mirror_.resize(state_.size());
      if (!(mirror_[i] == state_[i])) {
        pub.lane(static_cast<int>(i) % lanes_)
            .push_back({static_cast<std::uint32_t>(i), state_[i]});
        mirror_[i] = state_[i];
      }
    }
    if (pub.next_is_base()) {
      est::EpochSnapshot& s = pub.staging(static_cast<int>(state_.size()));
      s.nodes = state_;
    }
    pub.publish(static_cast<double>(pub.published()));
  }

  void expect_current(const est::EpochSnapshot* view) const {
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->nodes.size(), state_.size());
    EXPECT_EQ(view->version, pub.published());
    for (std::size_t i = 0; i < state_.size(); ++i)
      EXPECT_TRUE(view->nodes[i] == state_[i]) << "slot " << i;
  }

  est::SnapshotPublisher pub;

 private:
  int lanes_;
  std::vector<est::SnapshotNode> state_;
  std::vector<est::SnapshotNode> mirror_;
};

TEST(SnapshotDeltas, ReaderLagWithinOneBaseCatchesUpIncrementally) {
  DeltaDriver d(/*n=*/12, /*base_interval=*/4, /*lanes=*/3);
  est::SnapshotView view(&d.pub);

  d.publish_next();  // version 1: the first base, all slots dirty
  d.expect_current(view.refresh());
  EXPECT_EQ(view.full_rebuilds(), 1u);

  // A few delta publishes, refreshed each time: all incremental.
  for (int round = 1; round <= 6; ++round) {
    d.set(round % 12, static_cast<double>(round));
    d.publish_next();
    d.expect_current(view.refresh());
  }
  EXPECT_EQ(view.full_rebuilds(), 1u);
  EXPECT_EQ(view.delta_refreshes(), 6u);

  // Fall behind across ONE base boundary (stale by < 2 bases): versions 8
  // (base), 9, 10 land unrefreshed; the chain still reaches back far
  // enough, so catch-up stays incremental.
  for (int round = 7; round <= 9; ++round) {
    d.set(round % 12, static_cast<double>(round));
    d.publish_next();
  }
  d.expect_current(view.refresh());
  EXPECT_EQ(view.full_rebuilds(), 1u);
  EXPECT_EQ(view.delta_refreshes(), 7u);
}

TEST(SnapshotDeltas, ReaderLagBeyondOneBaseRebuildsFromBase) {
  DeltaDriver d(/*n=*/12, /*base_interval=*/4, /*lanes=*/3);
  est::SnapshotView view(&d.pub);
  d.publish_next();
  d.expect_current(view.refresh());

  // Two whole base cycles pass unrefreshed: the chain has been pruned past
  // this reader, so it must copy the newest base once — and still land on
  // the exact current state.
  for (int round = 1; round <= 9; ++round) {
    d.set(round % 12, static_cast<double>(round));
    d.publish_next();
  }
  d.expect_current(view.refresh());
  EXPECT_EQ(view.full_rebuilds(), 2u);
  EXPECT_EQ(view.delta_refreshes(), 0u);
}

// Steady-state delta publication allocates nothing: after one base cycle
// has warmed the pools, buffer-allocation counters stay flat and the staged
// buffers/lanes keep their storage across many more publish cycles.
TEST(SnapshotDeltas, SteadyStatePublishingDoesNotAllocate) {
  DeltaDriver d(/*n=*/64, /*base_interval=*/4, /*lanes=*/2);
  est::SnapshotView view(&d.pub);
  // Warm-up: three full base cycles — the live-object population (retained
  // chain + pools) only reaches steady state once the first prune bursts
  // have refilled the pool — with a reader draining so retired buffers
  // recycle.
  for (int round = 0; round < 12; ++round) {
    d.set(round % 64, 100.0 + round);
    d.publish_next();
    view.refresh();
  }
  const std::uint64_t base_allocs = d.pub.base_buffer_allocs();
  const std::uint64_t delta_allocs = d.pub.delta_buffer_allocs();
  const est::SnapshotDeltaEntry* lane0 = d.pub.lane(0).data();
  const std::size_t lane0_cap = d.pub.lane(0).capacity();

  for (int round = 12; round < 48; ++round) {
    d.set(round % 64, 200.0 + round);
    d.publish_next();
    view.refresh();
  }
  EXPECT_EQ(d.pub.base_buffer_allocs(), base_allocs);
  EXPECT_EQ(d.pub.delta_buffer_allocs(), delta_allocs);
  EXPECT_EQ(d.pub.lane(0).data(), lane0);
  EXPECT_EQ(d.pub.lane(0).capacity(), lane0_cap);
}

// Wire accounting: with one slot changing per epoch, delta publishes cost
// O(1) entries while base publishes cost O(n) — the mean bytes per publish
// must sit far below the full-buffer cost (the churn-proportional claim,
// unit-sized).
TEST(SnapshotDeltas, PublishBytesAreChurnProportional) {
  const int n = 256;
  DeltaDriver d(n, /*base_interval=*/16, /*lanes=*/2);
  for (int round = 0; round < 64; ++round) {
    d.set(round % n, static_cast<double>(round));
    d.publish_next();
  }
  const est::SnapshotPublisher& pub = d.pub;
  const double mean_bytes =
      static_cast<double>(pub.published_base_bytes() +
                          pub.published_delta_bytes()) /
      static_cast<double>(pub.published());
  const double full_bytes = 24.0 + n * sizeof(est::SnapshotNode);
  // 4 bases out of 64 publishes + tiny deltas: well under 20% of full cost.
  EXPECT_LT(mean_bytes, 0.20 * full_bytes);
}

// The concurrent-reader stress test for the delta read path (CI TSan runs
// this binary): reader threads each hold their OWN SnapshotView and refresh
// while the shard workers publish deltas. Versions never go backwards,
// refresh never trails published(), and every refreshed view is complete.
// Once the run ends, each view refreshes once more and must equal the final
// full publication in version and slot for slot; at least one reader must
// have caught up by deltas mid-run, the path a shadow reader follows.
TEST(SnapshotDeltas, ConcurrentViewReadersDuringRun) {
  OnlineSimConfig c = small_config(600.0);
  c.publish_snapshots = true;
  c.snapshot_deltas = true;
  c.snapshot_base_interval = 8;
  ShardedEngine sim(c, 2, small_topology(32), lat::LinkModelConfig{},
                    all_up());

  std::atomic<bool> stop{false};
  std::atomic<bool> monotonic{true};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> mid_run_delta_refreshes{0};
  const auto reader = [&] {
    est::SnapshotView view(&sim.snapshot_publisher());
    std::uint64_t last_version = 0;
    double sink = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t floor = sim.snapshot_publisher().published();
      const est::EpochSnapshot* snap = view.refresh();
      if (snap == nullptr) {
        std::this_thread::yield();
        continue;
      }
      if (snap->version < last_version || snap->version < floor)
        monotonic.store(false, std::memory_order_relaxed);
      last_version = snap->version;
      for (const est::SnapshotNode& node : snap->nodes)
        if (node.placed()) sink += node.error + node.confidence;
      reads.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    EXPECT_GE(sink, 0.0);
    EXPECT_GT(view.full_rebuilds() + view.delta_refreshes(), 0u);
    mid_run_delta_refreshes.fetch_add(view.delta_refreshes(), std::memory_order_relaxed);

    // stop is set after run() returned: no publish is left to race with.
    const est::EpochSnapshot* last = view.refresh();
    const auto final_snap = sim.snapshot_publisher().latest();
    EXPECT_NE(last, nullptr);
    EXPECT_NE(final_snap, nullptr);
    if (last != nullptr && final_snap != nullptr) {
      EXPECT_EQ(last->version, final_snap->version);
      EXPECT_EQ(last->version, sim.snapshot_publisher().published());
      EXPECT_EQ(last->nodes, final_snap->nodes);
    }
  };

  std::thread r1(reader);
  std::thread r2(reader);
  sim.run();
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_TRUE(monotonic.load());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(sim.snapshot_publisher().published(), 0u);
  EXPECT_GT(mid_run_delta_refreshes.load(), 0u);
}

// Delta-mode memory accounting is split and visible: the base side carries
// the O(n) buffers + mirror, the delta side the chain/lanes/pool.
TEST(SnapshotDeltas, MemoryBudgetSplitsBaseAndDelta) {
  OnlineSimConfig c = small_config(200.0);
  c.publish_snapshots = true;
  c.snapshot_deltas = true;
  c.snapshot_base_interval = 8;
  ShardedEngine sim(c, 2, small_topology(), lat::LinkModelConfig{},
                    all_up());
  sim.run();
  const MemoryBudget m = sim.memory_budget();
  EXPECT_GT(m.snapshot_base_bytes, 0u);
  EXPECT_GT(m.snapshot_delta_bytes, 0u);
  EXPECT_GT(m.neighbor_bytes, 0u);
  EXPECT_GE(m.total(), m.snapshot_base_bytes + m.snapshot_delta_bytes +
                           m.neighbor_bytes);
}

}  // namespace
}  // namespace nc::sim
