// Kernel microbenchmarks (google-benchmark): per-observation costs of the
// coordinate pipeline and the supporting data structures. The headline is
// the ENERGY heuristic's incremental energy distance: O(k) per observation
// against the naive O(k^2) recomputation (DESIGN.md ablation).
#include <benchmark/benchmark.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/filters/mp_filter.hpp"
#include "core/heuristics/windowed_heuristics.hpp"
#include "core/nc_client.hpp"
#include "core/vivaldi.hpp"
#include "latency/trace_generator.hpp"
#include "sim/shard_mailbox.hpp"
#include "stats/energy.hpp"
#include "stats/p2_quantile.hpp"

namespace {

using namespace nc;

void BM_VecDistance(benchmark::State& state) {
  Rng rng(1);
  const Vec a = rng.unit_vector(3) * 50.0;
  const Vec b = rng.unit_vector(3) * 80.0;
  for (auto _ : state) benchmark::DoNotOptimize(a.distance_to(b));
}
BENCHMARK(BM_VecDistance);

void BM_VivaldiObserve(benchmark::State& state) {
  VivaldiConfig cfg;
  Vivaldi v(cfg, 1);
  Rng rng(2);
  const Coordinate remote{Vec{50.0, 20.0, -10.0}};
  double rtt = 60.0;
  for (auto _ : state) {
    rtt = 40.0 + rng.uniform(0.0, 40.0);
    benchmark::DoNotOptimize(v.observe(remote, 0.3, rtt));
  }
}
BENCHMARK(BM_VivaldiObserve);

void BM_MpFilterUpdate(benchmark::State& state) {
  MovingPercentileFilter f(static_cast<int>(state.range(0)), 25.0);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(f.update(rng.lognormal(4.0, 0.8)));
}
BENCHMARK(BM_MpFilterUpdate)->Arg(4)->Arg(32)->Arg(128);

void BM_P2QuantileAdd(benchmark::State& state) {
  stats::P2Quantile q(0.95);
  Rng rng(4);
  for (auto _ : state) {
    q.add(rng.lognormal(4.0, 0.8));
    benchmark::DoNotOptimize(q.value());
  }
}
BENCHMARK(BM_P2QuantileAdd);

std::vector<Vec> window_of(int k, Rng& rng, double center) {
  std::vector<Vec> w;
  w.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    w.push_back(rng.unit_vector(3) * rng.uniform(0.0, 10.0) +
                Vec{center, 0.0, 0.0});
  return w;
}

// Naive: recompute e(Ws, Wc) from scratch on every slide — O(k^2).
void BM_EnergySlideNaive(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(5);
  const auto base = window_of(k, rng, 0.0);
  std::vector<Vec> current = window_of(k, rng, 5.0);
  for (auto _ : state) {
    current.erase(current.begin());
    current.push_back(rng.unit_vector(3) * rng.uniform(0.0, 10.0));
    benchmark::DoNotOptimize(stats::energy_distance(base, current));
  }
}
BENCHMARK(BM_EnergySlideNaive)->Arg(16)->Arg(32)->Arg(64);

// Incremental: EnergyHeuristic's pair sums under one slide of W_c — O(k).
// The threshold is never reached, so every update after the fill slides;
// the arriving points cycle through a pregenerated stream.
void BM_EnergySlideIncremental(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(5);
  EnergyHeuristic h(std::numeric_limits<double>::max(), k);
  Coordinate app = Coordinate::origin(3);
  for (const Vec& v : window_of(k, rng, 5.0))
    h.on_system_update({Coordinate{v}, nullptr, 0.0}, app);
  std::vector<Coordinate> stream;
  for (const Vec& v : window_of(1024, rng, 0.0)) stream.emplace_back(v);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.on_system_update({stream[next], nullptr, 0.0}, app));
    next = (next + 1) % stream.size();
  }
}
BENCHMARK(BM_EnergySlideIncremental)->Arg(16)->Arg(32)->Arg(64)->Arg(256);

// Full per-observation pipeline: filter + Vivaldi + ENERGY heuristic, on one
// client whose link rows and windows stay in cache.
void BM_NCClientObserve(benchmark::State& state) {
  NCClientConfig cfg;
  cfg.heuristic = HeuristicConfig::energy(8.0, 32);
  NCClient client(0, cfg);
  Rng rng(6);
  const Coordinate remote{Vec{50.0, 20.0, -10.0}};
  NodeId peer = 1;
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    peer = 1 + (peer + 1) % 64;  // cycle a working set of links
    benchmark::DoNotOptimize(
        client.observe(peer, remote, 0.3, 40.0 + rng.uniform(0.0, 40.0), t));
  }
}
BENCHMARK(BM_NCClientObserve);

// The same pipeline as a replay drives it: 2,048 default clients fed one
// generated trace in record order, each record observing the destination's
// current coordinate. Consecutive records touch different clients, so each
// observation finds its client's link rows and heuristic windows out of
// cache. One lap of the trace warms the clients before timing; later laps
// shift the record times forward.
void BM_NCClientObserveColdClients(benchmark::State& state) {
  const int n = 2048;
  lat::TraceGenConfig tcfg;
  tcfg.topology.num_nodes = n;
  tcfg.duration_s = 120.0;
  tcfg.seed = 7;
  lat::TraceGenerator gen(tcfg);
  std::vector<lat::TraceRecord> trace;
  while (const auto r = gen.next()) trace.push_back(*r);
  std::vector<NCClient> clients;
  clients.reserve(n);
  for (int i = 0; i < n; ++i) clients.emplace_back(static_cast<NodeId>(i), NCClientConfig{});

  std::size_t next = 0;
  double lap = 0.0;
  const auto observe_next = [&] {
    const lat::TraceRecord& r = trace[next];
    const NCClient& dst = clients[r.dst];
    const auto out = clients[r.src].observe(r.dst, dst.system_coordinate(),
                                            dst.error_estimate(), r.rtt_ms, r.t_s + lap);
    if (++next == trace.size()) {
      next = 0;
      lap += tcfg.duration_s;
    }
    return out;
  };
  for (std::size_t i = 0; i < trace.size(); ++i) observe_next();
  for (auto _ : state) benchmark::DoNotOptimize(observe_next());
}
BENCHMARK(BM_NCClientObserveColdClients);

// A whole 0.25-hour trace per iteration, construction included, drained at
// the default worker count for its node count: the generation cost a
// replay run pays in set-up. At n = 2048 nearly every ping meets a fresh
// link, so this is the first-touch path; at n = 269 links repeat.
void BM_TraceGeneratorDrain(benchmark::State& state) {
  lat::TraceGenConfig cfg;
  cfg.topology.num_nodes = static_cast<int>(state.range(0));
  cfg.duration_s = 0.25 * 3600.0;
  cfg.seed = 11;
  std::uint64_t records = 0;
  for (auto _ : state) {
    lat::TraceGenerator gen(cfg);
    while (const auto r = gen.next()) benchmark::DoNotOptimize(r->rtt_ms);
    records += gen.produced();
  }
  state.counters["records_per_s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGeneratorDrain)
    ->Arg(269)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TraceGeneration(benchmark::State& state) {
  lat::TraceGenConfig cfg;
  cfg.topology.num_nodes = 128;
  cfg.duration_s = 1e9;  // effectively unbounded for the benchmark
  cfg.seed = 7;
  lat::TraceGenerator gen(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneration);

// The sharded engine's epoch rhythm on its calendar queue: one bulk batch
// of epoch-clamped deliveries, then drain the epoch while re-arming one
// timer per pop. Reported per processed event.
void BM_ShardEventQueueEpochBatch(benchmark::State& state) {
  const int kTimers = 256;
  const int kBatch = 512;
  sim::ShardEventQueue q;
  Rng rng(9);
  double epoch = 0.0;
  const double interval = 5.0;
  for (int i = 0; i < kTimers; ++i) {
    sim::ShardEvent ev;
    ev.t = rng.uniform(0.0, interval);
    ev.kind = sim::ShardEventKind::kPingTimer;
    ev.a = i;
    q.push(ev);
  }
  std::vector<sim::ShardEvent> batch;
  std::uint64_t processed = 0;
  while (state.KeepRunningBatch(kTimers + kBatch)) {
    batch.clear();
    for (int i = 0; i < kBatch; ++i) {
      sim::ShardEvent ev;
      ev.t = epoch;  // clamped delivery: all at the epoch start
      ev.kind = (i & 1) != 0 ? sim::ShardEventKind::kPong
                             : sim::ShardEventKind::kPing;
      ev.a = static_cast<NodeId>(rng.uniform_int(kTimers));
      ev.b = static_cast<NodeId>(rng.uniform_int(kTimers));
      ev.seq = processed + static_cast<std::uint64_t>(i);
      batch.push_back(ev);
    }
    q.push_batch(batch);
    epoch += interval;
    while (q.has_event_before(epoch)) {
      sim::ShardEvent ev = q.pop();
      ++processed;
      if (ev.kind == sim::ShardEventKind::kPingTimer) {
        ev.t += interval;
        q.push(ev);
      }
      benchmark::DoNotOptimize(ev);
    }
  }
}
BENCHMARK(BM_ShardEventQueueEpochBatch);

// One online-shaped epoch through the shard hand-off at W = 4: each of a
// shard's 512 nodes sends one ping, one pong carrying both coordinates and
// one dst-error record to a peer's shard (send); then each receiver merges
// its dst-error column, appends its event column to staging with clamped
// times (collect), hands it to its queue (push_batch) and pops it all.
// Reported per event, dst-error records included.
void BM_EpochMailboxDelivery(benchmark::State& state) {
  constexpr int kShards = 4;
  constexpr int kNodesPerShard = 512;
  constexpr int kNodes = kShards * kNodesPerShard;
  constexpr double kInterval = 5.0;
  sim::EpochMailbox mailbox(kShards, 2 * kNodesPerShard / kShards + 8,
                            kNodesPerShard / kShards + 8);
  std::vector<sim::ShardEventQueue> queues(kShards);
  std::vector<std::vector<sim::ShardEvent>> staging(kShards);
  std::vector<std::vector<sim::DstErrorRecord>> dst_errors(kShards);
  Rng rng(5);
  const Coordinate coord(rng.unit_vector(8) * 40.0, 3.0);
  // Peers drawn up front, so the loop times the hand-off and not the Rng.
  std::vector<NodeId> peers(kNodes);
  for (NodeId& p : peers) p = static_cast<NodeId>(rng.uniform_int(kNodes));
  std::vector<std::uint64_t> seqs(kNodes, 0);
  double epoch = 0.0;
  while (state.KeepRunningBatch(3 * kNodes)) {
    for (int s = 0; s < kShards; ++s) {
      for (int i = 0; i < kNodesPerShard; ++i) {
        const NodeId node = s * kNodesPerShard + i;
        const NodeId peer = peers[static_cast<std::size_t>(node)];
        const int r = peer / kNodesPerShard;
        std::uint64_t& seq = seqs[static_cast<std::size_t>(node)];
        const double t = epoch + static_cast<double>(i) * 1e-3;

        sim::ShardEvent& ping = mailbox.append(s, r);
        ping.t = ping.t_orig = t;
        ping.kind = sim::ShardEventKind::kPing;
        ping.a = peer;
        ping.b = node;
        ping.seq = seq++;
        ping.rtt_ms = 40.0f;

        sim::ShardEvent& pong = mailbox.append(s, r);
        pong.t = pong.t_orig = t - 1.0;
        pong.kind = sim::ShardEventKind::kPong;
        pong.a = peer;
        pong.b = node;
        pong.seq = seq++;
        pong.rtt_ms = 40.0f;
        pong.sys_coord = coord;
        pong.app_coord = coord;
        pong.coord_err = 0.3;

        mailbox.send_dst_error(s, r, sim::DstErrorRecord{t, node, peer, seq++, 0.1});
      }
    }
    epoch += kInterval;
    for (int r = 0; r < kShards; ++r) {
      auto& queue = queues[static_cast<std::size_t>(r)];
      auto& errors = dst_errors[static_cast<std::size_t>(r)];
      mailbox.collect_dst_errors_into(r, errors);
      benchmark::DoNotOptimize(errors.data());
      mailbox.collect_events_into(r, epoch, staging[static_cast<std::size_t>(r)]);
      queue.push_batch(staging[static_cast<std::size_t>(r)]);
      while (!queue.empty()) {
        const sim::ShardEvent ev = queue.pop();
        benchmark::DoNotOptimize(ev);
      }
    }
  }
}
BENCHMARK(BM_EpochMailboxDelivery);

}  // namespace

BENCHMARK_MAIN();
