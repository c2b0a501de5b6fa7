// Online deployment simulation: the paper's PlanetLab experiment (Sec. VI).
//
// Nodes run the full protocol concurrently as discrete events over the
// stochastic latency network:
//
//  * every node samples one neighbor from its NeighborSet in round-robin
//    order every `ping_interval_s` (paper: 5 s), with a small deterministic
//    phase jitter;
//  * each ping/pong carries the sender's coordinate state plus one gossiped
//    neighbor address, so membership spreads epidemically from a small
//    bootstrap set;
//  * the response arrives after the sampled RTT; the observation applies the
//    remote state as of arrival time;
//  * lost pings and down nodes produce timeouts (no observation).
//
// Since PR 5 there is exactly ONE online event loop in the repo: the
// epoch-sharded kernel (sim/sharded_sim.hpp). OnlineSimulator is a thin
// shards=1 facade over it, kept for callers that hold a LatencyNetwork and
// want the classic constructor shape; it no longer owns a timer/gossip loop
// of its own. Its delivery semantics are therefore the kernel's epoch
// semantics (messages hand over at ping_interval_s boundaries), and all of
// its stochastic state derives from config.seed — the borrowed network
// contributes its topology and its link/availability CONFIGURATION, not its
// internal RNG state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/nc_client.hpp"
#include "core/neighbor_set.hpp"
#include "estimate/estimator_config.hpp"
#include "latency/link_model.hpp"
#include "sim/metrics.hpp"

namespace nc::sim {

class ShardedEngine;
struct MemoryBudget;

struct OnlineSimConfig {
  NCClientConfig client;

  double duration_s = 4.0 * 3600.0;
  double measure_start_s = 2.0 * 3600.0;
  double ping_interval_s = 5.0;   // paper Sec. VI
  double ping_jitter_s = 0.25;    // deterministic phase jitter per ping

  /// Each node bootstraps with this many random known peers (>= 1).
  int bootstrap_degree = 3;
  std::size_t neighbor_capacity = 512;

  bool collect_timeseries = false;
  double timeseries_bucket_s = 600.0;
  bool collect_oracle = false;
  std::vector<NodeId> tracked_nodes;
  double track_interval_s = 600.0;

  std::uint64_t seed = 7;

  /// Which estimation backend answers RTT queries (and scores the accuracy
  /// metrics). Each shard owns one instance fed its nodes' observations.
  est::EstimatorSpec estimator;

  /// Publish an immutable est::EpochSnapshot of every node's application
  /// coordinate / confidence / availability at epoch boundaries — the
  /// serving layer's concurrent read path (ShardedEngine::
  /// snapshot_publisher()). Off by default; with publication off the run is
  /// bit-identical to a build without the seam. Forced on when
  /// estimator.backend == kSnapshot.
  bool publish_snapshots = false;
  /// Publish every k-th epoch boundary (>= 1). The end-of-run state is
  /// always published once the run finishes, whatever the cadence.
  int snapshot_interval_epochs = 1;
  /// Churn-proportional publication: ship a full base snapshot only every
  /// snapshot_base_interval-th publish and compact deltas (the slots whose
  /// published state actually changed) in between. Readers reconstruct the
  /// full view through est::SnapshotView. Observationally identical to full
  /// publication — same publish epochs, same version numbering, and any
  /// reconstructed view matches the full snapshot slot for slot — only the
  /// bytes shipped per publish change (O(churn) instead of O(n)).
  bool snapshot_deltas = false;
  /// Full-base cadence in publishes (>= 1) when snapshot_deltas is on. The
  /// end-of-run publish always ships a base, whatever the cadence.
  int snapshot_base_interval = 16;

  /// Dynamic shard ownership (core/ownership.hpp): every k-th epoch barrier
  /// each shard deterministically re-plans node placement from per-node
  /// event weights and migrates a bounded batch of nodes between shards
  /// through the epoch mailbox. 0 (default) keeps the static block
  /// partition. Metrics are bit-identical at any shard count with
  /// rebalancing on, and identical to off — only per-shard utilization and
  /// which shard holds each node's state change.
  int rebalance_interval_epochs = 0;
  /// Upper bound on nodes migrated per rebalance barrier (>= 0).
  int rebalance_max_moves = 8;
};

/// Per-node runtime of the online protocol: clients, neighbor sets with
/// bootstrap membership, and per-node ping-timer streams, all derived from
/// config.seed. The sharded kernel builds its node state through this one
/// helper, which is what pins the starting membership to the seed alone.
struct OnlineNodeRuntime {
  std::vector<std::unique_ptr<NCClient>> clients;
  std::vector<NeighborSet> neighbors;
  std::vector<Rng> timer_rngs;
};

/// Validates the online config (bootstrap degree in [1, n), positive ping
/// interval, positive track interval when tracking) and builds the runtime.
/// Bootstrap counts only DISTINCT peers — a duplicate random draw must not
/// eat a slot, or nodes silently start under-connected.
[[nodiscard]] OnlineNodeRuntime make_online_node_runtime(
    const OnlineSimConfig& config, int num_nodes);

/// Thin shards=1 facade over the epoch-sharded kernel. The borrowed network
/// supplies topology and link/availability configuration only (callers that
/// share one network across configurations still see identical workloads —
/// every stochastic draw derives from config.seed and the entity keys).
class OnlineSimulator {
 public:
  /// Rejects a network with route changes scheduled on it: the facade
  /// copies configuration, not network state, so it could not honor them —
  /// pass schedules to ShardedEngine as ShardedRouteChange arguments.
  OnlineSimulator(const OnlineSimConfig& config, lat::LatencyNetwork& network);
  ~OnlineSimulator();
  OnlineSimulator(const OnlineSimulator&) = delete;
  OnlineSimulator& operator=(const OnlineSimulator&) = delete;

  /// Runs the full simulation. Call once.
  void run();

  [[nodiscard]] MetricsCollector& metrics() noexcept;
  [[nodiscard]] const MetricsCollector& metrics() const noexcept;
  [[nodiscard]] NCClient& client(NodeId id);
  [[nodiscard]] NeighborSet& neighbors(NodeId id);
  [[nodiscard]] int num_nodes() const noexcept;

  [[nodiscard]] std::uint64_t pings_sent() const noexcept;
  [[nodiscard]] std::uint64_t pings_lost() const noexcept;
  /// Queue events processed (timers + deliveries), the unit
  /// bench_event_core reports per second for the facade rows.
  [[nodiscard]] std::uint64_t events_processed() const noexcept;
  /// Per-run byte accounting of the underlying engine's state blocks.
  [[nodiscard]] MemoryBudget memory_budget() const;

 private:
  std::unique_ptr<ShardedEngine> engine_;
};

}  // namespace nc::sim
