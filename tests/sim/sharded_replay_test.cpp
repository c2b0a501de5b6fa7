// Replay mode on the epoch-sharded kernel: the PR 5 port's acceptance
// suite, mirroring sharded_sim_test for SimMode::kReplay. The contract is
// the same as the online engine's: every metric and every coordinate is
// bit-identical for ANY --shards=W, because each entity consumes its
// observation stream in a canonical, partition-independent order.
#include "sim/sharded_sim.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "eval/registry.hpp"
#include "eval/scenario.hpp"
#include "latency/trace.hpp"
#include "latency/trace_generator.hpp"

namespace nc::sim {
namespace {

lat::TraceGenConfig small_trace(int nodes = 24, double duration = 600.0) {
  lat::TraceGenConfig c;
  c.topology.num_nodes = nodes;
  c.duration_s = duration;
  c.seed = 71;
  c.availability.enabled = false;
  return c;
}

ReplayConfig small_replay(double duration = 600.0, int shards = 1) {
  ReplayConfig c;
  c.client.vivaldi.dim = 3;
  c.client.heuristic = HeuristicConfig::always();
  c.duration_s = duration;
  c.measure_start_s = duration / 2.0;
  c.shards = shards;
  return c;
}

// Every node's final coordinate bit-identical for any shard count (shards
// own disjoint node sets, so equality here means every client's observation
// stream replayed alike, including the cross-shard state stamps).
TEST(ShardedReplay, CoordinatesBitIdenticalAcrossShardCounts) {
  const auto run_with = [](int shards) {
    lat::TraceGenerator gen(small_trace());
    ShardedEngine driver(small_replay(600.0, shards), gen.num_nodes());
    driver.run(gen);
    std::vector<Coordinate> coords;
    for (NodeId id = 0; id < driver.num_nodes(); ++id)
      coords.push_back(driver.client(id).system_coordinate());
    return std::tuple{coords, driver.metrics().observation_count(),
                      driver.events_processed()};
  };
  const auto one = run_with(1);
  EXPECT_EQ(one, run_with(2));
  EXPECT_EQ(one, run_with(3));
  EXPECT_EQ(one, run_with(4));
}

// The acceptance-level check: full metric surface, bit-identical, on the
// planetlab and churn presets through the scenario engine.
TEST(ShardedReplay, MetricsBitIdenticalOnPresets) {
  for (const char* preset : {"planetlab", "churn"}) {
    eval::ScenarioSpec spec = eval::make_scenario(preset);
    spec.mode = eval::SimMode::kReplay;
    spec.workload.num_nodes = 48;
    spec.workload.duration_s = 900.0;
    spec.measurement.measure_start_s = 450.0;
    spec.measurement.collect_timeseries = true;
    spec.measurement.timeseries_bucket_s = 120.0;

    spec.shards = 1;
    const eval::ScenarioOutput a = eval::run_scenario(spec);
    spec.shards = 4;
    const eval::ScenarioOutput b = eval::run_scenario(spec);

    EXPECT_EQ(a.records, b.records) << preset;
    EXPECT_EQ(a.attempts, b.attempts) << preset;
    EXPECT_EQ(a.absorbed, b.absorbed) << preset;
    EXPECT_EQ(a.metrics.observation_count(), b.metrics.observation_count())
        << preset;
    EXPECT_EQ(a.metrics.total_app_updates(), b.metrics.total_app_updates())
        << preset;
    EXPECT_EQ(a.metrics.median_relative_error(), b.metrics.median_relative_error())
        << preset;
    EXPECT_EQ(a.metrics.mean_instability_ms_per_s(),
              b.metrics.mean_instability_ms_per_s())
        << preset;
    EXPECT_EQ(a.metrics.mean_pct_nodes_updating_per_s(),
              b.metrics.mean_pct_nodes_updating_per_s())
        << preset;

    const auto cdf_equal = [](const stats::Ecdf& x, const stats::Ecdf& y) {
      const auto xs = x.sorted_values();
      const auto ys = y.sorted_values();
      return std::vector<double>(xs.begin(), xs.end()) ==
             std::vector<double>(ys.begin(), ys.end());
    };
    EXPECT_TRUE(cdf_equal(a.metrics.per_node_median_error(),
                          b.metrics.per_node_median_error()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.per_node_p95_error(),
                          b.metrics.per_node_p95_error()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.instability(), b.metrics.instability()))
        << preset;
    EXPECT_TRUE(
        cdf_equal(a.metrics.system_instability(), b.metrics.system_instability()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.per_node_p95_movement(),
                          b.metrics.per_node_p95_movement()))
        << preset;
    EXPECT_TRUE(cdf_equal(a.metrics.per_dst_median_error(),
                          b.metrics.per_dst_median_error()))
        << preset;

    const auto series_equal = [](const std::vector<stats::SeriesPoint>& x,
                                 const std::vector<stats::SeriesPoint>& y) {
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i].t != y[i].t || x[i].value != y[i].value) return false;
      return true;
    };
    EXPECT_TRUE(series_equal(a.metrics.error_timeseries_median(),
                             b.metrics.error_timeseries_median()))
        << preset;
    EXPECT_TRUE(series_equal(a.metrics.error_timeseries_p95(),
                             b.metrics.error_timeseries_p95()))
        << preset;
    EXPECT_TRUE(series_equal(a.metrics.instability_timeseries(),
                             b.metrics.instability_timeseries()))
        << preset;
  }
}

// Oracle metrics flow through the reader's gt stamps identically at any W.
TEST(ShardedReplay, OracleMetricsShardCountInvariant) {
  const auto oracle_cdf = [](int shards) {
    lat::TraceGenerator gen(small_trace(12, 300.0));
    ReplayConfig rc = small_replay(300.0, shards);
    rc.collect_oracle = true;
    ShardedEngine driver(rc, gen.num_nodes());
    driver.run(gen);
    const auto cdf = driver.metrics().oracle_per_node_median_error();
    return std::vector<double>(cdf.sorted_values().begin(),
                               cdf.sorted_values().end());
  };
  const auto one = oracle_cdf(1);
  EXPECT_GT(one.size(), 6u);
  EXPECT_EQ(one, oracle_cdf(3));
}

// Drift tracking: every shard carries the tick series of its own tracked
// nodes; the merged series must not depend on the partition.
TEST(ShardedReplay, DriftTrackingIsShardCountInvariant) {
  const auto drift_of = [](int shards) {
    lat::TraceGenerator gen(small_trace(24, 600.0));
    ReplayConfig rc = small_replay(600.0, shards);
    rc.tracked_nodes = {1, 17};  // land on different shards at W=3
    rc.track_interval_s = 120.0;
    ShardedEngine driver(rc, gen.num_nodes());
    driver.run(gen);
    std::vector<std::pair<double, Vec>> points;
    for (NodeId id : {1, 17})
      for (const DriftPoint& p : driver.metrics().drift(id))
        points.emplace_back(p.t, p.position);
    return std::pair{points, driver.events_processed()};
  };
  const auto serial = drift_of(1);
  // 4 interior ticks + the final duration_s flush, per tracked node.
  EXPECT_EQ(serial.first.size(), 10u);
  EXPECT_EQ(serial, drift_of(3));
}

// Parallel trace ingest (PR 7): a pre-partitioned replay — every shard
// reading its own slice — must be bit-identical to the single-reader path
// on the unpartitioned trace, for any shard count. Equality of every final
// coordinate plus the merged metric surface means each client consumed the
// same observation stream in the same order.
TEST(ShardedReplay, PartitionedReplayBitIdenticalToSingleReader) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/replay-part";
  const std::string whole = prefix + ".nctr";
  lat::generate_trace_file(small_trace(32, 600.0), whole);

  struct Result {
    std::vector<Coordinate> coords;
    std::uint64_t observations;
    std::uint64_t events;
    double median_err;
    double instability;
    bool operator==(const Result&) const = default;
  };
  const auto result_of = [](ShardedEngine& driver) {
    Result r;
    for (NodeId id = 0; id < driver.num_nodes(); ++id)
      r.coords.push_back(driver.client(id).system_coordinate());
    r.observations = driver.metrics().observation_count();
    r.events = driver.events_processed();
    r.median_err = driver.metrics().median_relative_error();
    r.instability = driver.metrics().mean_instability_ms_per_s();
    return r;
  };

  lat::TraceReader ref_src(whole);
  ShardedEngine ref(small_replay(600.0, 1), ref_src.num_nodes());
  ref.run(ref_src);
  const Result expected = result_of(ref);

  for (int shards : {1, 2, 3}) {
    lat::TraceReader src(whole);
    const auto paths = lat::partition_trace(src, prefix, src.num_nodes(), shards);
    std::vector<std::unique_ptr<lat::TraceReader>> slices;
    std::vector<lat::TraceSource*> sources;
    for (const std::string& p : paths) {
      slices.push_back(std::make_unique<lat::TraceReader>(p));
      sources.push_back(slices.back().get());
    }
    ShardedEngine driver(small_replay(600.0, shards), ref_src.num_nodes());
    driver.run_partitioned(sources);
    EXPECT_EQ(result_of(driver), expected) << "shards=" << shards;
  }
}

// The partitioned entry point enforces its contract: one slice per shard,
// no nulls, no foreign records in a slice.
TEST(ShardedReplay, PartitionedReplayRejectsBadSlices) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/replay-part-bad";
  const std::string whole = prefix + ".nctr";
  lat::generate_trace_file(small_trace(12, 60.0), whole);

  {
    // Wrong slice count.
    lat::TraceReader a(whole);
    ShardedEngine driver(small_replay(60.0, 2), 12);
    std::vector<lat::TraceSource*> sources{&a};
    EXPECT_THROW(driver.run_partitioned(sources), CheckError);
  }
  {
    // The whole trace handed to every shard: shard 1's reader immediately
    // sees records whose dst it does not own.
    lat::TraceReader a(whole);
    lat::TraceReader b(whole);
    ShardedEngine driver(small_replay(60.0, 2), 12);
    std::vector<lat::TraceSource*> sources{&a, &b};
    EXPECT_THROW(driver.run_partitioned(sources), CheckError);
  }
}

// collect_oracle reads the ground truth a generator stamps into each
// record. Both entry points refuse a source without it (a trace file) before
// reading a single record, so a caller never gets an empty oracle CDF
// without an error.
TEST(ShardedReplay, OracleWithoutStampedTruthRejected) {
  const std::string path =
      std::string(::testing::TempDir()) + "/replay-no-truth.nctr";
  lat::generate_trace_file(small_trace(12, 300.0), path);
  lat::TraceReader src(path);
  ReplayConfig rc = small_replay(300.0, 1);
  rc.collect_oracle = true;
  ShardedEngine engine(rc, src.num_nodes());
  ASSERT_GT(src.record_count(), 0u);
  EXPECT_THROW(engine.run(src), CheckError);
  EXPECT_EQ(engine.metrics().observation_count(), 0u);
  // Nothing was read: the source still yields the trace's first record.
  lat::TraceReader fresh(path);
  const auto first = fresh.next();
  const auto unread = src.next();
  ASSERT_TRUE(first.has_value() && unread.has_value());
  EXPECT_EQ(unread->t_s, first->t_s);
  EXPECT_EQ(unread->src, first->src);
  EXPECT_EQ(unread->dst, first->dst);
}

TEST(ShardedReplay, PartitionedOracleRejected) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/replay-part-oracle";
  const std::string whole = prefix + ".nctr";
  lat::generate_trace_file(small_trace(12, 300.0), whole);
  lat::TraceReader src(whole);
  const auto paths = lat::partition_trace(src, prefix, src.num_nodes(), 2);
  lat::TraceReader a(paths[0]);
  lat::TraceReader b(paths[1]);
  ReplayConfig rc = small_replay(300.0, 2);
  rc.collect_oracle = true;
  ShardedEngine engine(rc, src.num_nodes());
  std::vector<lat::TraceSource*> sources{&a, &b};
  EXPECT_THROW(engine.run_partitioned(sources), CheckError);
  EXPECT_EQ(engine.metrics().observation_count(), 0u);
}

// ---- Worker failure path ----
//
// A shard that throws mid-run stores its error and drops out of the epoch
// barrier; its peers run on to the end, and the engine rethrows the stored
// errors in shard order. The faults are injected through the trace slices:
// a reading shard calls next() in its processing phase (and the main
// thread in the priming read before the workers start).

struct InjectedFault : std::runtime_error {
  explicit InjectedFault(int slice_idx)
      : std::runtime_error("injected fault in slice " +
                           std::to_string(slice_idx)),
        slice(slice_idx) {}
  int slice;
};

/// A trace slice whose next() throws InjectedFault once it has handed out
/// `k` records.
class FailingSource final : public lat::TraceSource {
 public:
  FailingSource(lat::TraceSource& inner, int slice, std::uint64_t k)
      : inner_(inner), slice_(slice), k_(k) {}

  std::optional<lat::TraceRecord> next() override {
    if (served_ == k_) {
      fired_ = true;
      throw InjectedFault(slice_);
    }
    ++served_;
    return inner_.next();
  }
  int num_nodes() const override { return inner_.num_nodes(); }
  [[nodiscard]] bool fired() const noexcept { return fired_; }

 private:
  lat::TraceSource& inner_;
  int slice_;
  std::uint64_t k_;
  std::uint64_t served_ = 0;
  bool fired_ = false;
};

/// Records of the slice at `path` stamped before `t_s`. With this k a
/// FailingSource throws right after handing out its last record before
/// t_s, i.e. while its shard reads the epoch window that ends at t_s (for
/// t_s = epoch_s: the priming read). Every window used below holds a
/// record of each slice in the seeded trace.
std::uint64_t records_before(const std::string& path, double t_s) {
  lat::TraceReader reader(path);
  std::uint64_t k = 0;
  for (auto rec = reader.next(); rec.has_value() && rec->t_s < t_s;
       rec = reader.next())
    ++k;
  return k;
}

constexpr double kNoFault = -1.0;

/// Replays `whole` over fail_at.size() shards, slice s failing while its
/// shard reads the window that ends at fail_at[s] (kNoFault: never), and
/// checks that every injected fault fired. Returns the slice whose fault
/// run_partitioned rethrew, or -1 if it returned normally.
int run_with_faults(const std::string& whole, const std::string& prefix,
                    const std::vector<double>& fail_at) {
  const int shards = static_cast<int>(fail_at.size());
  lat::TraceReader src(whole);
  const auto paths = lat::partition_trace(src, prefix, src.num_nodes(), shards);
  std::vector<std::unique_ptr<lat::TraceReader>> slices;
  std::vector<std::unique_ptr<FailingSource>> failing;
  std::vector<lat::TraceSource*> sources;
  for (int s = 0; s < shards; ++s) {
    const auto i = static_cast<std::size_t>(s);
    slices.push_back(std::make_unique<lat::TraceReader>(paths[i]));
    if (fail_at[i] == kNoFault) {
      sources.push_back(slices.back().get());
      continue;
    }
    failing.push_back(std::make_unique<FailingSource>(
        *slices.back(), s, records_before(paths[i], fail_at[i])));
    sources.push_back(failing.back().get());
  }
  ShardedEngine engine(small_replay(120.0, shards), src.num_nodes());
  int surfaced = -1;
  try {
    engine.run_partitioned(sources);
  } catch (const InjectedFault& e) {
    surfaced = e.slice;
  }
  for (const auto& f : failing) EXPECT_TRUE(f->fired());
  return surfaced;
}

TEST(ShardedReplay, WorkerFaultsSurfaceInShardOrder) {
  const std::string prefix =
      std::string(::testing::TempDir()) + "/replay-part-fault";
  const std::string whole = prefix + ".nctr";
  lat::generate_trace_file(small_trace(24, 120.0), whole);

  // One failing slice at W=2: shard 1 runs on alone to the end.
  EXPECT_EQ(run_with_faults(whole, prefix, {20.0, kNoFault}), 0);
  // Slices 1 and 3 fail at different epochs, slice 3 first: the engine
  // reports the lowest-numbered failing shard, not the earliest failure.
  EXPECT_EQ(run_with_faults(whole, prefix, {kNoFault, 40.0, kNoFault, 5.0}), 1);
  // All four slices fail in the same epoch: every worker drops out.
  EXPECT_EQ(run_with_faults(whole, prefix, {11.0, 11.0, 11.0, 11.0}), 0);
  // A fault in the priming read surfaces before any worker starts.
  EXPECT_EQ(run_with_faults(whole, prefix, {kNoFault, kNoFault, 1.0, kNoFault}),
            2);
}

/// A trace held in memory, handed out in order.
class RecordsSource final : public lat::TraceSource {
 public:
  RecordsSource(std::vector<lat::TraceRecord> records, int num_nodes)
      : records_(std::move(records)), num_nodes_(num_nodes) {}

  std::optional<lat::TraceRecord> next() override {
    if (next_ == records_.size()) return std::nullopt;
    return records_[next_++];
  }
  int num_nodes() const override { return num_nodes_; }

 private:
  std::vector<lat::TraceRecord> records_;
  int num_nodes_;
  std::size_t next_ = 0;
};

// A record time that is not finite, negative, or below the same reader's
// previous record is refused with a CheckError naming the reader and the
// record's index, in single-reader and partitioned replay alike: a NaN
// breaks the queue key's strict weak order (and with it W-invariance), and
// a step back would be observed silently in a later epoch. Equal times
// are fine.
TEST(ShardedReplay, RejectsNonFiniteOrBackwardsRecordTimes) {
  constexpr int kNodes = 4;
  constexpr double kDuration = 60.0;
  // 200 records over every ordered pair, two per timestamp, 0.25 s apart.
  std::vector<lat::TraceRecord> trace;
  for (int i = 0; i < 200; ++i) {
    lat::TraceRecord rec;
    rec.t_s = static_cast<double>(i / 2) * 0.25;
    rec.src = i % kNodes;
    rec.dst = (rec.src + 1 + (i / kNodes) % (kNodes - 1)) % kNodes;
    rec.rtt_ms = static_cast<float>(10 + i % 7);
    trace.push_back(rec);
  }
  const auto with_time = [&](const std::vector<lat::TraceRecord>& records,
                             std::size_t i, double t) {
    std::vector<lat::TraceRecord> out = records;
    out[i].t_s = t;
    return out;
  };
  const auto rejection = [](const std::function<void()>& run) -> std::string {
    try {
      run();
    } catch (const CheckError& e) {
      return e.what();
    }
    return "accepted";
  };
  const auto single = [&](std::vector<lat::TraceRecord> records, int shards) {
    return rejection([&] {
      RecordsSource src(std::move(records), kNodes);
      ShardedEngine engine(small_replay(kDuration, shards), kNodes);
      engine.run(src);
    });
  };
  const auto expect_names = [](const std::string& what,
                               const std::string& reader_and_record) {
    EXPECT_NE(what.find(reader_and_record), std::string::npos) << what;
  };

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const int shards : {1, 3}) {
    EXPECT_EQ(single(trace, shards), "accepted");
    expect_names(single(with_time(trace, 100, nan), shards),
                 "trace reader 0: record 100 ");
    expect_names(single(with_time(trace, 7, inf), shards),
                 "trace reader 0: record 7 ");
    expect_names(single(with_time(trace, 0, -0.5), shards),
                 "trace reader 0: record 0 ");
    expect_names(single(with_time(trace, 150, trace[149].t_s - 3.0), shards),
                 "trace reader 0: record 150 ");
  }

  // Partitioned: each shard's reader checks its own slice.
  std::vector<lat::TraceRecord> slices[2];
  for (const lat::TraceRecord& rec : trace)
    slices[shard_of_node(rec.dst, kNodes, 2)].push_back(rec);
  const auto partitioned = [&](std::vector<lat::TraceRecord> slice0,
                               std::vector<lat::TraceRecord> slice1) {
    return rejection([&] {
      RecordsSource a(std::move(slice0), kNodes);
      RecordsSource b(std::move(slice1), kNodes);
      ShardedEngine engine(small_replay(kDuration, 2), kNodes);
      engine.run_partitioned({&a, &b});
    });
  };
  EXPECT_EQ(partitioned(slices[0], slices[1]), "accepted");
  expect_names(partitioned(slices[0], with_time(slices[1], 20, nan)),
               "trace reader 1: record 20 ");
  expect_names(partitioned(with_time(slices[0], 30, slices[0][29].t_s - 1.0),
                           slices[1]),
               "trace reader 0: record 30 ");
}

TEST(ShardedReplay, MoreShardsThanNodesWorks) {
  lat::TraceGenerator gen(small_trace(5, 300.0));
  ShardedEngine driver(small_replay(300.0, 8), gen.num_nodes());
  driver.run(gen);
  EXPECT_GT(driver.metrics().observation_count(), 0u);
}

TEST(ShardedReplay, RunTwiceRejected) {
  lat::TraceGenerator gen(small_trace(8, 60.0));
  ShardedEngine driver(small_replay(60.0, 2), gen.num_nodes());
  driver.run(gen);
  lat::TraceGenerator gen2(small_trace(8, 60.0));
  EXPECT_THROW(driver.run(gen2), CheckError);
}

TEST(ShardedReplay, RejectsBadConfigs) {
  EXPECT_THROW(ShardedEngine(small_replay(600.0, 0), 8), CheckError);
  ReplayConfig bad_epoch = small_replay();
  bad_epoch.epoch_s = 0.0;
  EXPECT_THROW(ShardedEngine(bad_epoch, 8), CheckError);
  ReplayConfig bad_track = small_replay();
  bad_track.tracked_nodes = {1};
  bad_track.track_interval_s = 0.0;
  EXPECT_THROW(ShardedEngine(bad_track, 8), CheckError);
}

// The two run() entry points are mode-gated: a replay engine cannot run as
// an online simulation and vice versa.
TEST(ShardedReplay, ModeMismatchedRunRejected) {
  ShardedEngine replay(small_replay(60.0), 8);
  EXPECT_THROW(replay.run(), CheckError);

  lat::TopologyConfig tc;
  tc.num_nodes = 8;
  OnlineSimConfig oc;
  oc.duration_s = 60.0;
  oc.measure_start_s = 30.0;
  ShardedEngine online(oc, 1, lat::Topology::make(tc));
  lat::TraceGenerator gen(small_trace(8, 60.0));
  EXPECT_THROW(online.run(gen), CheckError);
}

// Scheduled route changes reach the replay oracle via the generating
// network — the composed schedule presets drive replay mode too.
TEST(ShardedReplay, RouteScheduleShiftsOracleRtts) {
  const auto oracle_err = [](const char* schedule) {
    eval::ScenarioSpec spec = eval::make_scenario("planetlab");
    spec.mode = eval::SimMode::kReplay;
    spec.workload.num_nodes = 12;
    spec.workload.duration_s = 300.0;
    spec.workload.availability = lat::AvailabilityConfig{.enabled = false};
    spec.measurement.measure_start_s = 150.0;
    spec.measurement.collect_oracle = true;
    eval::apply_route_schedule(spec, schedule);
    const eval::ScenarioOutput out = eval::run_scenario(spec);
    return out.metrics.oracle_median_error_of(0);
  };
  EXPECT_NE(oracle_err("single-link"), oracle_err("none"));
}

}  // namespace
}  // namespace nc::sim
