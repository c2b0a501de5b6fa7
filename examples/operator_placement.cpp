// Stream-operator placement — the authors' own motivating application
// (network-aware operator placement for stream-processing systems): a query
// operator should run on the overlay node minimizing source-to-sink latency,
// and MIGRATING the operator is expensive. A coordinate change triggers
// re-evaluation, so coordinate stability directly bounds migration churn.
//
// The placement controller is a pure serving-layer consumer: it queries a
// CoordinateService for both hops of every candidate path and never reaches
// into coordinate state directly. The coordinate subsystem publishes an
// EpochSnapshot at each change notification — exactly the cadence a deployed
// node would push its coordinate to the directory — so the controller sees
// the frozen view a real serving tier would. The same workload runs twice —
// application coordinates driven by the ENERGY heuristic vs raw system
// coordinates — counting how many migrations each triggers for the same
// final placement quality. This is the paper's "cascade of heavyweight
// process migrations" argument made concrete.
//
//   build/examples/operator_placement [--nodes=80 --minutes=45]
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/flags.hpp"
#include "core/nc_client.hpp"
#include "estimate/snapshot.hpp"
#include "latency/trace_generator.hpp"
#include "serve/coordinate_service.hpp"

using namespace nc;

namespace {

struct PlacementRun {
  long reevaluations = 0;       // placement recomputations triggered
  int migrations = 0;           // actual host changes
  std::uint64_t snapshots = 0;  // snapshot versions published
  double final_cost_ms = 0.0;   // placed path latency (ground truth)
  double optimal_cost_ms = 0.0; // best possible path latency
};

// Replays the workload. The placement controller is event-driven, exactly as
// the paper prescribes for the coordinate black box: whenever the coordinate
// subsystem reports that the application coordinate of the source, the sink
// or the current host changed, a fresh snapshot is published and the
// controller re-runs the O(n) placement scan over the service; a host change
// is a heavyweight migration. Raw coordinates notify on nearly every sample;
// ENERGY notifies only at change points.
PlacementRun run(const HeuristicConfig& heuristic, std::uint64_t seed, int n,
                 double duration) {
  lat::TraceGenConfig trace;
  trace.topology.num_nodes = n;
  trace.duration_s = duration;
  trace.seed = seed;
  trace.topology.seed = seed;
  trace.availability.enabled = false;

  NCClientConfig cc;
  cc.heuristic = heuristic;
  std::vector<NCClient> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) clients.emplace_back(id, cc);

  // The publisher stands in for the deployment's coordinate directory; the
  // controller only ever sees what has been published through it.
  est::SnapshotPublisher publisher;
  serve::CoordinateService service(&publisher, n);
  const auto publish_state = [&](double t) {
    est::EpochSnapshot& snap = publisher.staging(n);
    for (NodeId id = 0; id < n; ++id) {
      est::SnapshotNode& slot = snap.nodes[static_cast<std::size_t>(id)];
      const NCClient& c = clients[static_cast<std::size_t>(id)];
      slot.app = c.application_coordinate();
      slot.error = c.error_estimate();
      slot.confidence = c.confidence();
      slot.up = 1;
    }
    publisher.publish(t);
  };

  lat::TraceGenerator gen(trace);

  // Source and sink in the same (largest) region: many hosts are near-tied,
  // so the argmin is sensitive to coordinate jitter — the regime where
  // application-coordinate stability matters.
  const NodeId source = 0;
  const NodeId sink = static_cast<NodeId>(n / 5);

  PlacementRun result;
  NodeId host = kInvalidNode;
  const double warmup = duration / 4.0;  // let coordinates converge first
  double now = 0.0;

  const auto replace = [&] {
    publish_state(now);
    ++result.reevaluations;
    NodeId best = source;
    double best_cost = 1e18;
    for (NodeId cand = 0; cand < n; ++cand) {
      const std::optional<double> up = service.distance_ms(source, cand);
      const std::optional<double> down = service.distance_ms(cand, sink);
      if (!up.has_value() || !down.has_value()) continue;  // not yet placed
      const double cost = *up + *down;
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    if (best != host) {
      if (host != kInvalidNode) ++result.migrations;
      host = best;
    }
  };

  while (auto rec = gen.next()) {
    if (rec->t_s >= duration) break;
    now = rec->t_s;
    NCClient& src = clients[static_cast<std::size_t>(rec->src)];
    NCClient& dst = clients[static_cast<std::size_t>(rec->dst)];
    const ObservationOutcome out =
        src.observe(rec->dst, dst.system_coordinate(), dst.error_estimate(),
                    rec->rtt_ms, rec->t_s);
    if (rec->t_s < warmup) continue;
    if (host == kInvalidNode) {
      replace();  // initial placement
      continue;
    }
    // The coordinate subsystem's change notification drives the controller.
    if (out.app_updated &&
        (rec->src == source || rec->src == sink || rec->src == host)) {
      replace();
    }
  }
  result.snapshots = publisher.published();

  // Score the final placement against ground truth.
  const double t = duration + 1.0;
  auto path_cost = [&](NodeId mid) {
    double cost = 0.0;
    if (mid != source) cost += gen.network().ground_truth_rtt(source, mid, t);
    if (mid != sink) cost += gen.network().ground_truth_rtt(mid, sink, t);
    return cost;
  };
  result.final_cost_ms = host == kInvalidNode ? -1.0 : path_cost(host);
  result.optimal_cost_ms = 1e18;
  for (NodeId cand = 0; cand < n; ++cand)
    result.optimal_cost_ms = std::min(result.optimal_cost_ms, path_cost(cand));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = flags.get_int32("nodes", 80);
  const double duration = 60.0 * flags.get_double("minutes", 45.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 21));

  std::printf("operator placement between node 0 and node %d, re-run on every\n"
              "coordinate-change notification for source/sink/host:\n\n",
              n / 5);
  const PlacementRun stable = run(HeuristicConfig::energy(8.0, 32), seed, n, duration);
  const PlacementRun raw = run(HeuristicConfig::always(), seed, n, duration);

  std::printf("  %-24s re-evaluations %6ld  migrations %3d  snapshots %6llu  "
              "path %.1f ms (optimum %.1f)\n",
              "energy application c_a:", stable.reevaluations, stable.migrations,
              static_cast<unsigned long long>(stable.snapshots),
              stable.final_cost_ms, stable.optimal_cost_ms);
  std::printf("  %-24s re-evaluations %6ld  migrations %3d  snapshots %6llu  "
              "path %.1f ms (optimum %.1f)\n",
              "raw system c_s:", raw.reevaluations, raw.migrations,
              static_cast<unsigned long long>(raw.snapshots),
              raw.final_cost_ms, raw.optimal_cost_ms);
  std::printf("\nsame placement quality; the stable application coordinate cuts the\n"
              "notification -> publish -> re-evaluation -> (possible) migration\n"
              "cascade by orders of magnitude — the reason the paper separates\n"
              "application- from system-level coordinates.\n");
  return 0;
}
