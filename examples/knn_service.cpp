// Distributed approximate k-nearest-neighbors over network coordinates —
// the problem the paper's related-work section cites as a coordinate-space
// application (operator placement and k-NN in stream overlays).
//
// The directory is the serving layer itself: a CoordinateService over the
// engine's published epoch snapshots answers "which k nodes are closest to
// X?" from the frozen coordinate view alone — no per-query measurement, and
// the hand-rolled registration cache the earlier version of this example
// maintained is gone. We score against ground truth: how many of the true k
// nearest does the snapshot answer find, and how much extra RTT does
// contacting the top-ranked neighbor cost?
//
//   build/examples/knn_service [--nodes=120 --minutes=30 --k=5]
#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
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
  const int k = flags.get_int32("k", 5);

  // Build coordinates from a synthetic measurement stream on the
  // epoch-sharded engine, publishing snapshots for the service to read.
  lat::TraceGenConfig trace;
  trace.topology.num_nodes = n;
  trace.duration_s = duration;
  trace.seed = static_cast<std::uint64_t>(flags.get_int("seed", 31));
  trace.topology.seed = trace.seed;
  trace.availability.enabled = false;
  sim::ReplayConfig rc;
  rc.duration_s = duration;
  rc.measure_start_s = duration / 2.0;
  rc.publish_snapshots = true;
  lat::TraceGenerator gen(trace);
  sim::ShardedEngine engine(rc, gen.num_nodes());
  engine.run(gen);

  // Score the service's k-NN answers for every node against ground truth.
  serve::CoordinateService service(&engine.snapshot_publisher(), n);
  const double t_eval = duration + 1.0;
  double recall_sum = 0.0;
  double penalty_sum = 0.0;  // extra RTT of the contacted node vs true nearest
  std::vector<serve::CoordinateService::Neighbor> answer;
  for (NodeId q = 0; q < n; ++q) {
    service.nearest_k(q, k, answer);

    // Ground-truth k nearest by quiescent RTT.
    std::vector<std::pair<double, NodeId>> truth;
    for (NodeId other = 0; other < n; ++other) {
      if (other == q) continue;
      truth.emplace_back(gen.network().ground_truth_rtt(q, other, t_eval), other);
    }
    std::sort(truth.begin(), truth.end());

    std::set<NodeId> true_set;
    for (int i = 0; i < k; ++i)
      true_set.insert(truth[static_cast<std::size_t>(i)].second);
    int hits = 0;
    for (const auto& nb : answer)
      if (true_set.count(nb.id) > 0) ++hits;
    recall_sum += static_cast<double>(hits) / k;

    // The querying node contacts the top-ranked neighbor (the answer is
    // already ascending by predicted RTT).
    const NodeId contacted = answer.front().id;
    penalty_sum +=
        gen.network().ground_truth_rtt(q, contacted, t_eval) - truth.front().first;
  }

  const serve::ServiceStats& stats = service.stats();
  std::printf("approximate %d-NN over %d nodes from published snapshots:\n", k, n);
  std::printf("  mean recall@%d vs ground truth: %.0f%%\n", k,
              100.0 * recall_sum / n);
  std::printf("  mean extra RTT of the contacted neighbor: %.2f ms\n",
              penalty_sum / n);
  std::printf("  service: %llu nearest-k queries against snapshot v%llu "
              "(%llu empty)\n",
              static_cast<unsigned long long>(stats.nearest_queries),
              static_cast<unsigned long long>(service.snapshot_version()),
              static_cast<unsigned long long>(stats.empty_answers));
  return 0;
}
