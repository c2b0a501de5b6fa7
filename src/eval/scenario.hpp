// The scenario engine: one spec type for every experiment in the repo.
//
// A ScenarioSpec composes three orthogonal pieces:
//
//  * WorkloadSpec    — the synthetic network and measurement schedule
//                      (topology, link model, availability, route events);
//  * NCClientConfig  — the coordinate pipeline applied to every node;
//  * MeasurementSpec — what to collect and over which window.
//
// plus a SimMode selecting how observations arise: kReplay feeds a
// generated trace through the epoch-sharded kernel (the paper's simulator
// methodology, Sec. IV-A), kOnline runs the event-driven deployment
// protocol on the same kernel (Sec. VI). Both modes construct one
// sim::ShardedEngine and shard the run across `shards` worker threads with
// bit-identical results at any count. A replay at shards > 1 splits the
// generated trace by owner shard and gives every shard its own reader,
// unless oracle metrics are asked for: they read the ground truth the
// generator stamps into each record, which slice files do not carry, so
// those runs keep one reader. Named
// workload presets — planetlab, intercontinental, churn, flash-crowd,
// drift-heavy, lan-cluster — live in eval/registry.hpp; the parallel
// multi-spec runner lives in eval/grid.hpp.
//
// Determinism guarantee: run_scenario is a pure function of its spec. Two
// scenarios with the same workload fields and seed see bit-identical
// observation streams even when their client configurations differ — the
// reproduction of the paper's "run both systems on the same nodes at the
// same time" methodology — and repeated runs of one spec produce
// bit-identical metrics, which is what lets ExperimentGrid fan runs out
// across threads without changing any result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/nc_client.hpp"
#include "estimate/estimator_config.hpp"
#include "latency/link_model.hpp"
#include "latency/trace_generator.hpp"
#include "sim/metrics.hpp"
#include "sim/sharded_route_change.hpp"
#include "sim/sharded_sim.hpp"

namespace nc::eval {

/// A controlled route change injected into the workload (adaptation studies).
struct RouteChangeEvent {
  NodeId i = kInvalidNode;
  NodeId j = kInvalidNode;
  double factor = 1.0;
  double at_t = 0.0;
};

/// The synthetic network plus the measurement schedule driving it.
struct WorkloadSpec {
  int num_nodes = 269;
  double duration_s = 4.0 * 3600.0;
  double ping_interval_s = 1.0;
  std::uint64_t seed = 1;
  int bootstrap_degree = 3;  // online mode only
  std::optional<lat::TopologyConfig> topology;        // default: PlanetLab-like
  std::optional<lat::LinkModelConfig> link_model;     // default: LinkModelConfig{}
  std::optional<lat::AvailabilityConfig> availability;
  std::vector<RouteChangeEvent> route_changes;
};

/// What to collect, and over which window.
struct MeasurementSpec {
  double measure_start_s = -1.0;  // < 0: second half of the run
  bool collect_timeseries = false;
  double timeseries_bucket_s = 600.0;
  bool collect_oracle = false;
  std::vector<NodeId> tracked_nodes;
  double track_interval_s = 600.0;
};

enum class SimMode { kReplay, kOnline };

struct ScenarioSpec {
  /// Registry preset this spec was built from ("custom" when hand-built);
  /// informational — carried along so reports can label their workload.
  std::string scenario = "custom";
  SimMode mode = SimMode::kReplay;

  /// Worker shards of the epoch-sharded kernel, for BOTH modes — one run
  /// spread across cores, bit-identical for any shard count (see
  /// sim/sharded_sim.hpp). 0 and 1 both mean one worker shard: the kernel
  /// is the only engine.
  int shards = 0;

  WorkloadSpec workload;
  NCClientConfig client;  // identical configuration on every node
  MeasurementSpec measurement;
  /// Estimation backend answering RTT queries and scoring the accuracy
  /// metrics (registry backend presets: coordinates, idms, idms-volatile,
  /// idms-sticky, snapshot — see apply_backend).
  est::EstimatorSpec estimator;

  /// Dynamic shard ownership (sim/sharded_sim.hpp): rebalance the node
  /// partition every k epochs from per-node event weights, migrating at
  /// most `rebalance_max_moves` nodes per barrier. 0 keeps the static block
  /// partition. Metrics are bit-identical on vs. off at any shard count.
  int rebalance_interval_epochs = 0;
  int rebalance_max_moves = 8;
};

struct ScenarioOutput {
  sim::MetricsCollector metrics;

  // Replay mode.
  std::uint64_t records = 0;   // observations replayed
  std::uint64_t attempts = 0;  // ping attempts incl. losses
  std::uint64_t absorbed = 0;  // samples withheld by filters (not primed/rejected)

  // Online mode.
  std::uint64_t pings_sent = 0;
  std::uint64_t pings_lost = 0;

  /// Backend coverage/staleness/cost, merged across shards (equal to
  /// metrics.estimator_stats(); duplicated here for report convenience).
  est::EstimatorStats estimator_stats;
  /// End-of-run byte accounting of the engine's state blocks.
  sim::MemoryBudget memory;
  /// Replay mode: the trace generator's bytes once drained, outside the
  /// engine's budget (all zero online).
  lat::TraceGenMemory generator_memory;
};

/// Runs one scenario to completion. Pure: equal specs => equal outputs.
[[nodiscard]] ScenarioOutput run_scenario(const ScenarioSpec& spec);

/// The trace-generator configuration a workload resolves to (exposed so
/// benches can build matching TraceGenerators, e.g. for filter-only studies).
[[nodiscard]] lat::TraceGenConfig resolve_trace_config(const WorkloadSpec& workload);

/// The online-engine configuration a spec resolves to (exposed so benches
/// that drive the kernel directly — e.g. bench_event_core reading
/// events_processed() — assemble exactly what run_scenario would).
[[nodiscard]] sim::OnlineSimConfig resolve_online_config(const ScenarioSpec& spec);

/// The topology configuration a workload resolves to (node count and seed
/// fallbacks applied).
[[nodiscard]] lat::TopologyConfig resolve_topology_config(const WorkloadSpec& workload);

/// workload.route_changes in the sharded simulator's vocabulary.
[[nodiscard]] std::vector<sim::ShardedRouteChange> resolve_route_changes(
    const WorkloadSpec& workload);

/// The effective measurement-window start (resolves the < 0 default).
[[nodiscard]] double resolved_measure_start_s(const ScenarioSpec& spec);

}  // namespace nc::eval
