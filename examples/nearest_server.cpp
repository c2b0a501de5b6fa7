// Replica selection through the serving layer (the content-distribution
// motivation from the paper's introduction).
//
// A 120-node network hosts 6 replicas of a service. Every client asks a
// CoordinateService — the query front end over the engine's published epoch
// snapshots (serve/coordinate_service.hpp) — for its predicted RTT to each
// replica and picks the smallest answer; no measurement to any replica
// happens at decision time. The answer path is the same LatencyEstimator
// seam the engine scores internally (a SnapshotEstimator over the final
// published snapshot), so a service answer and a --backend=snapshot metric
// are the same computation. Random selection is the baseline; ground truth
// scores the choice.
//
//   build/examples/nearest_server [--nodes=120 --minutes=30 --replicas=6]
#include <cstdio>
#include <optional>
#include <vector>

#include "common/flags.hpp"
#include "latency/trace_generator.hpp"
#include "serve/coordinate_service.hpp"
#include "sim/sharded_sim.hpp"

using namespace nc;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = flags.get_int32("nodes", 120);
  const double duration = 60.0 * flags.get_double("minutes", 30.0);
  const int num_replicas = flags.get_int32("replicas", 6);

  // Build coordinate state by replaying a synthetic measurement stream
  // through the epoch-sharded engine, publishing snapshots as it runs (the
  // end-of-run state is always published, so the service sees the final
  // embedding).
  lat::TraceGenConfig trace;
  trace.topology.num_nodes = n;
  trace.duration_s = duration;
  trace.seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  trace.topology.seed = trace.seed;
  trace.availability.enabled = false;  // servers and clients stay up

  sim::ReplayConfig rc;
  rc.duration_s = duration;
  rc.measure_start_s = duration / 2.0;
  rc.publish_snapshots = true;
  lat::TraceGenerator gen(trace);
  sim::ShardedEngine engine(rc, gen.num_nodes());
  engine.run(gen);

  // Spread replicas across the id space (i.e., across regions).
  std::vector<NodeId> replicas;
  for (int r = 0; r < num_replicas; ++r)
    replicas.push_back(static_cast<NodeId>(r * n / num_replicas));

  // Every other node asks the service which replica is closest.
  serve::CoordinateService service(&engine.snapshot_publisher(), n);
  Rng rng(99);
  double est_penalty_sum = 0.0;  // chosen RTT minus best RTT (ms)
  double random_penalty_sum = 0.0;
  int optimal_hits = 0;
  int clients = 0;
  const double t_eval = duration + 1.0;
  for (NodeId client = 0; client < n; ++client) {
    bool is_replica = false;
    for (NodeId r : replicas) is_replica |= (r == client);
    if (is_replica) continue;
    ++clients;

    NodeId chosen = replicas.front();
    double chosen_est = 1e18;
    double best_rtt = 1e18;
    NodeId best = replicas.front();
    for (NodeId r : replicas) {
      const std::optional<double> e = service.distance_ms(client, r);
      if (e.has_value() && *e < chosen_est) {
        chosen_est = *e;
        chosen = r;
      }
      const double rtt = gen.network().ground_truth_rtt(client, r, t_eval);
      if (rtt < best_rtt) {
        best_rtt = rtt;
        best = r;
      }
    }
    if (chosen == best) ++optimal_hits;
    est_penalty_sum +=
        gen.network().ground_truth_rtt(client, chosen, t_eval) - best_rtt;
    const NodeId random_choice =
        replicas[static_cast<std::size_t>(rng.uniform_int(replicas.size()))];
    random_penalty_sum +=
        gen.network().ground_truth_rtt(client, random_choice, t_eval) - best_rtt;
  }

  const serve::ServiceStats& stats = service.stats();
  std::printf("replica selection over %d clients, %d replicas "
              "(CoordinateService, snapshot v%llu):\n",
              clients, num_replicas,
              static_cast<unsigned long long>(service.snapshot_version()));
  std::printf("  service picked the true nearest replica: %d/%d (%.0f%%)\n",
              optimal_hits, clients, 100.0 * optimal_hits / clients);
  std::printf("  mean extra RTT vs optimal: service %.1f ms, random %.1f ms\n",
              est_penalty_sum / clients, random_penalty_sum / clients);
  std::printf("  service answered %llu distance queries (%llu empty)\n",
              static_cast<unsigned long long>(stats.distance_queries),
              static_cast<unsigned long long>(stats.empty_answers));
  return 0;
}
