// The epoch-sharded simulation engine: one kernel for every run.
//
// ExperimentGrid parallelizes across independent runs; this engine
// parallelizes WITHIN one run, and since PR 5 it drives BOTH simulation
// modes — the event-driven online deployment (paper Sec. VI) and trace
// replay (Sec. IV-A). Nodes are block-partitioned over W worker shards;
// with rebalance_interval_epochs > 0 the partition becomes DYNAMIC — every
// k-th barrier each shard deterministically re-plans placement from shared
// per-node event weights and hands a bounded batch of nodes to new owners
// through the migration channel (core/ownership.hpp; DESIGN.md Sec. 14) with
// bit-identical results.
// Each shard owns everything its nodes touch — NCClient, NeighborSet,
// per-node RNG streams, the availability/overload process of its nodes and
// the latency state of every DIRECTED link its nodes ping — and advances in
// lock-step epochs. Within an epoch a shard processes only its own
// entities; all cross-node interaction (ping delivery, pong observation,
// replay-record routing, per-destination metric records) travels as
// events handed over at epoch boundaries, which the receiving shard's queue
// processes in a canonical, event-intrinsic order (shard_mailbox.hpp).
//
// Online mode: epochs are `ping_interval_s` long; shards fire their nodes'
// ping timers, sample directed links, and exchange ping/pong traffic.
//
// Replay mode: epochs are `epoch_s` long and the traffic comes from a
// trace. With a single source, shard 0 doubles as the READER: during its
// processing phase it reads one epoch window of records ahead and mails
// each record as a kObs event to the OBSERVED node's owner shard. With a
// PRE-PARTITIONED trace (run_partitioned; lat::partition_trace splits one
// pass by owner shard of dst), EVERY shard reads its own slice in its own
// processing phase — the serial-reader Amdahl bottleneck disappears, and
// the result stays bit-identical because the canonical event order
// (t, kind, dst, src, seq) only consults seq for records identical in the
// first four keys, which necessarily sit in the same slice in their
// original relative order. That shard answers during the next epoch
// exactly like a pinged node answers a ping — it stamps its client's
// current coordinate state into a kPong at the record's own timestamp — and
// the pong is observed by the recorded source node one hand-off later,
// clamped up to the delivering epoch's start. A record at time t is
// therefore observed against the observed node's state at time t,
// at most ~2 epochs after t; records whose observation would land at or
// past duration_s are dropped (declared end-of-run semantics, exactly like
// the online engine's in-flight pings).
//
// Determinism: results are bit-identical for ANY shard count, because
//  * every stochastic draw belongs to exactly one entity's derived stream
//    (rngstream::k{PingTimer,Bootstrap,Node,DirectedLink,Neighbor}, plus
//    Vivaldi's per-node stream; replay mode draws nothing at all — the
//    trace and the serial reader own every random bit);
//  * each entity consumes its events in a canonical order: local timers are
//    totally ordered by time per node, delivered batches by a queue key
//    that is total over them (arrival order cannot matter), and dst-error
//    records are merged in their canonical order;
//  * cross-node per-second metric sums are accumulated in fixed-point by
//    MetricsCollector and merged associatively (MetricsCollector::merge).
//
// The steady-state event loop is allocation-free (DESIGN.md "Event core"):
// per-shard calendar queues hold the timers, delivered events gather into
// buffers reused across epochs and wait in the queue's sorted lane, and
// per-link latency state lives in a per-row sparse ShardLinkStore that
// holds only the links a run touches (common/link_store.hpp).
//
// Protocol semantics are declared per mode: events cross the network at
// epoch granularity (a ping sent in epoch k is answered in epoch k+1 and
// observed one delivery later, each step clamped up to the delivering
// epoch's start; a replay record is answered in the epoch containing it and
// observed at the next boundary), and node up/down/overload state advances
// at epoch starts instead of per query. shards=1 is the reference
// semantics. This class is the one entry point for both modes: every
// caller — run_scenario, the benches, the tests — constructs ShardedEngine
// directly.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/link_store.hpp"
#include "core/nc_client.hpp"
#include "core/neighbor_set.hpp"
#include "core/ownership.hpp"
#include "estimate/estimator_config.hpp"
#include "estimate/snapshot.hpp"
#include "latency/link_model.hpp"
#include "latency/topology.hpp"
#include "latency/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/shard_mailbox.hpp"
#include "sim/sharded_route_change.hpp"

namespace nc::sim {

/// Online-mode configuration: the paper's PlanetLab deployment (Sec. VI).
/// Every node pings one neighbor from its NeighborSet, round-robin, every
/// `ping_interval_s` (paper: 5 s) with a small deterministic phase jitter.
/// Each ping/pong carries the sender's coordinate state plus one gossiped
/// neighbor address, so membership spreads epidemically from a small
/// bootstrap set. Lost pings and down nodes time out without an
/// observation. All stochastic state derives from `seed`.
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

/// Replay-mode configuration (the paper's simulator methodology, Sec. IV-A):
/// every node runs an identically-configured client; the observation stream
/// comes from a recorded or generated trace instead of live timers.
struct ReplayConfig {
  NCClientConfig client;  // identical configuration on every node

  double duration_s = 4.0 * 3600.0;
  /// Accuracy/stability measured from here (paper: second half of the run).
  double measure_start_s = 2.0 * 3600.0;

  /// Epoch length of the sharded kernel (the replay analogue of the online
  /// engine's ping_interval_s). run_scenario sets it to the workload's trace
  /// cadence; the default matches TraceGenConfig's 1 Hz per-node pings.
  double epoch_s = 1.0;
  /// Worker shards (>= 1). Results are bit-identical for any value.
  int shards = 1;

  bool collect_timeseries = false;
  double timeseries_bucket_s = 600.0;
  /// Replay: needs run() on a source that stamps ground truth (a
  /// generator); run_partitioned() rejects it.
  bool collect_oracle = false;

  /// Estimation backend (per-shard instances; see est::EstimatorSpec).
  est::EstimatorSpec estimator;

  std::vector<NodeId> tracked_nodes;
  double track_interval_s = 600.0;

  /// Same contract as OnlineSimConfig: publish epoch snapshots for
  /// concurrent readers (off by default; forced on by backend kSnapshot).
  bool publish_snapshots = false;
  int snapshot_interval_epochs = 1;
  /// Same contract as OnlineSimConfig: churn-proportional delta publication
  /// (full base every snapshot_base_interval publishes, compact deltas in
  /// between). Observationally identical to full publication.
  bool snapshot_deltas = false;
  int snapshot_base_interval = 16;

  /// Same contract as OnlineSimConfig: dynamic shard ownership every k
  /// epochs (0 keeps the static block partition).
  int rebalance_interval_epochs = 0;
  int rebalance_max_moves = 8;
};

/// Per-run byte accounting of the engine's big state blocks (surfaced in
/// eval reports, bench_event_core rows and perfbench's memory line; fields
/// are heap bytes held at query time).
struct MemoryBudget {
  std::uint64_t client_bytes = 0;     // NCClients: link rows + heuristic windows
  std::uint64_t link_bytes = 0;       // per-shard directed-link stores
  std::uint64_t estimator_bytes = 0;  // backend state (matrix/coordinates)
  std::uint64_t mailbox_bytes = 0;    // epoch mailbox runs + merge scratch
  /// Gossip membership (NeighborSet) across all nodes — O(degree) per node
  /// since the compact-index membership replaced the n-bit bitmaps (0 in
  /// replay mode, which has no neighbor sets).
  std::uint64_t neighbor_bytes = 0;
  /// Snapshot publication, split by side: full staged/published/pooled
  /// buffers vs the delta chain + dirty lanes + delta pool (both 0 with
  /// publication off; delta side 0 in full-publication mode). The engine's
  /// last-published mirror counts on the base side — it is O(n) whether or
  /// not deltas are on.
  std::uint64_t snapshot_base_bytes = 0;
  std::uint64_t snapshot_delta_bytes = 0;
  /// Dynamic-ownership state: routing tables, per-node weights, and the
  /// high-water mark of migration payloads staged at one rebalance barrier.
  std::uint64_t rebalance_bytes = 0;
  /// Per-shard event queues (calendar buckets and scratch, the delivered
  /// lane, its spare and the sort keys) plus each shard's dst-error and
  /// staging buffers.
  std::uint64_t queue_bytes = 0;
  /// Per-shard MetricsCollectors: per-node error and movement stores, the
  /// per-second series, drift series and the bucketed error time series.
  std::uint64_t collector_bytes = 0;
  /// Both snapshot sides, for callers that only care about the block total.
  [[nodiscard]] std::uint64_t snapshot_bytes() const noexcept {
    return snapshot_base_bytes + snapshot_delta_bytes;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return client_bytes + link_bytes + estimator_bytes + mailbox_bytes +
           neighbor_bytes + snapshot_base_bytes + snapshot_delta_bytes +
           rebalance_bytes + queue_bytes + collector_bytes;
  }
};

class ShardedEngine {
 public:
  /// Online-mode engine: `shards` >= 1 worker threads over the network
  /// model the topology/link/availability configs describe. The kernel
  /// derives all link/node stochastic state itself, from config.seed, so a
  /// caller holding a lat::LatencyNetwork passes its topology(),
  /// link_config() and availability(). Route changes come only as
  /// `route_changes` arguments. Validates the config up front: bootstrap
  /// degree in [1, n), positive ping interval, positive track interval when
  /// tracking. Every node starts with `bootstrap_degree` DISTINCT random
  /// peers (a duplicate draw must not eat a slot, or nodes silently start
  /// under-connected).
  ShardedEngine(const OnlineSimConfig& config, int shards,
                lat::Topology topology,
                const lat::LinkModelConfig& link_config = {},
                const lat::AvailabilityConfig& availability = {},
                std::vector<ShardedRouteChange> route_changes = {});

  /// Replay-mode engine over `num_nodes` identically-configured clients.
  ShardedEngine(const ReplayConfig& config, int num_nodes);

  /// Runs a full online simulation across the worker shards. Call once;
  /// online mode only.
  void run();

  /// Replays every record of `source` (records past duration_s are
  /// ignored). Oracle metrics read the ground truth each record carries,
  /// so config.collect_oracle needs a source that stamps it (a
  /// lat::TraceGenerator): any other source throws CheckError before a
  /// record is read. Call once; replay mode only.
  void run(lat::TraceSource& source);

  /// Replays a PRE-PARTITIONED trace: sources[s] must hold exactly the
  /// records whose observed node (dst) shard s owns, in their original
  /// relative order (lat::partition_trace produces this). Every shard reads
  /// its own slice concurrently — bit-identical to run(source) on the
  /// unpartitioned trace at any shard count. No oracle: slice files carry
  /// no ground truth, so a config with collect_oracle throws CheckError
  /// before the run starts.
  /// Call once; replay mode only; sources.size() must equal shards().
  void run_partitioned(const std::vector<lat::TraceSource*>& sources);

  /// Merged metrics over all shards; valid after run().
  [[nodiscard]] MetricsCollector& metrics() noexcept;
  [[nodiscard]] const MetricsCollector& metrics() const noexcept;

  [[nodiscard]] NCClient& client(NodeId id) { return *clients_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] NeighborSet& neighbors(NodeId id) { return neighbors_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] int num_nodes() const noexcept { return static_cast<int>(clients_.size()); }
  [[nodiscard]] int shards() const noexcept { return static_cast<int>(shards_.size()); }
  [[nodiscard]] int shard_of(NodeId id) const noexcept;

  /// RTT estimate from the active backend: routed to the shard-owned
  /// instance responsible for `a`. The application-facing query surface
  /// (examples call this instead of reaching into coordinate state).
  [[nodiscard]] std::optional<double> estimate_rtt(NodeId a, NodeId b,
                                                   double now_s);
  /// Field-wise sum of every shard instance's coverage/staleness/cost
  /// counters (also attached to metrics() after run()).
  [[nodiscard]] est::EstimatorStats estimator_stats() const;
  /// Byte accounting of the engine's big state blocks.
  [[nodiscard]] MemoryBudget memory_budget() const;

  /// The engine's snapshot hand-off point (config.publish_snapshots; see
  /// estimate/snapshot.hpp for the reader/writer contract). Readers on any
  /// thread may call latest() on it WHILE the run is in progress — that is
  /// the point; serve::CoordinateService wraps exactly this. Before the
  /// first published epoch (or with publication off) latest() is null.
  [[nodiscard]] const est::SnapshotPublisher& snapshot_publisher() const noexcept {
    return publisher_;
  }

  [[nodiscard]] std::uint64_t pings_sent() const noexcept { return pings_sent_; }
  [[nodiscard]] std::uint64_t pings_lost() const noexcept { return pings_lost_; }
  /// Queue events processed across all shards (timers + deliveries; replay:
  /// record stamps + observations), the unit bench_event_core reports per
  /// second.
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_; }

  /// Ownership hand-offs executed at rebalance barriers (0 with rebalancing
  /// off, at shards()==1, or when the load never skews); valid after run().
  [[nodiscard]] std::uint64_t migrated_nodes() const noexcept { return migrated_; }
  /// Per-shard CPU seconds spent in the epoch loop's work segments
  /// (delivery + processing; barrier waits excluded) — the utilization basis
  /// bench_rebalance reports as a spread. Valid after run().
  [[nodiscard]] const std::vector<double>& shard_busy_seconds() const noexcept {
    return busy_s_;
  }

 private:
  enum class Mode : std::uint8_t { kOnline, kReplay };

  /// Availability/overload process of one node, advanced at epoch starts by
  /// the owning shard (epoch-granular analogue of the retired per-query
  /// LatencyNetwork::node_at; the state machine itself is the shared
  /// lat::NodeDynamics).
  struct NodeDyn {
    Rng rng;
    bool initialized = false;
    lat::NodeDynamics dyn;
  };

  /// Epoch-wide view of a node, written by its owner in the delivery phase
  /// and read by every shard in the processing phase (barrier-separated).
  struct NodeSnapshot {
    std::uint8_t up = 1;
    double burst_end_t = -1.0;
  };

  /// Latency state of one DIRECTED link, owned by the source node's shard:
  /// 88 bytes. Streams are per direction (route factor, bursts, jitter
  /// draws evolve independently for i->j and j->i); controlled route
  /// changes apply to both directions, each with its own cursor into the
  /// link's one entry of route_schedules_. The state machine is the shared
  /// lat::LinkDynamics. Initialization stays lazy (stream seeded at
  /// first-touch time), but the slot itself lives in the shard's
  /// directed-link store.
  struct DirLink {
    Rng rng;
    lat::LinkDynamics dyn;
  };

  /// One node's packed state crossing shards at a rebalance barrier, staged
  /// in migrations_ by the departing owner after its processing phase and
  /// installed by the arriving owner at the top of the next epoch. Shared
  /// node-indexed arrays (clients_, neighbors_, timer_rngs_, msg_seq_,
  /// node_dyn_, snapshots_) transfer by ownership hand-off alone — the
  /// barriers order the old owner's last write before the new owner's first.
  struct NodeMigration {
    NodeId node = kInvalidNode;
    /// Initialized directed-link slots of the node's store row, dst
    /// ascending (online mode only).
    std::vector<std::pair<std::uint32_t, DirLink>> links;
    est::EstimatorNodeState estimator;
    MetricsNodeState metrics;
    /// The node's not-yet-processed queue events (re-armed ping timer,
    /// far-future pongs), canonically ordered.
    std::vector<ShardEvent> pending;

    [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
      return sizeof(*this) +
             links.capacity() * sizeof(std::pair<std::uint32_t, DirLink>) +
             estimator.cells.capacity() *
                 sizeof(est::EstimatorNodeState::MatrixCell) +
             (metrics.errors.capacity() +
              metrics.second_movements.capacity()) * sizeof(double) +
             pending.capacity() * sizeof(ShardEvent);
    }
  };

  struct Shard {
    std::vector<NodeId> owned;  // sorted; contiguous block unless rebalancing
    ShardEventQueue queue;
    /// Directed-link state indexed (src, dst) over the whole node-id space;
    /// only the owned nodes' rows ever fill (online mode only).
    ShardLinkStore<DirLink> links;
    /// Merged dst-error records of one delivery, reused every epoch.
    std::vector<DstErrorRecord> dst_errors;
    /// Delivered-event staging for ShardEventQueue::push_batch, reused
    /// every epoch.
    std::vector<ShardEvent> staging;
    std::unique_ptr<MetricsCollector> collector;
    /// The shard's estimation backend instance: fed every observation whose
    /// OBSERVER the shard owns, in the shard's canonical processing order
    /// (which is what keeps any backend bit-identical at any shard count).
    std::unique_ptr<est::LatencyEstimator> estimator;
    /// The shard's own copy of the ownership map: read for every mailbox
    /// routing decision, mutated only by this shard's thread (every shard
    /// applies the identical deterministic plan, so the copies never
    /// diverge).
    OwnershipMap ownership;
    /// The plan decided this rebalance epoch, applied (owned lists +
    /// arriving state) at the top of the next epoch, then cleared.
    std::vector<RebalanceMove> pending_plan;
    /// Drain buffer for migrations_.collect_into, reused across barriers.
    std::vector<NodeMigration> arrivals;
    /// High-water mark of migration payload bytes received at one barrier.
    std::uint64_t rebalance_recv_hwm = 0;
    /// CPU seconds inside this shard's work segments (barriers excluded).
    double busy_s = 0.0;
    std::uint64_t pings_sent = 0;
    std::uint64_t pings_lost = 0;
    std::uint64_t events = 0;
  };

  [[nodiscard]] int shard_idx_of(const Shard& s) const noexcept {
    return static_cast<int>(&s - shards_.data());
  }
  void init_snapshot_publication(int shards, int num_nodes);
  void init_shards(int shards, int num_nodes);
  void advance_node_dyn(NodeId id, double t);
  void deliver_batch(Shard& shard, int shard_idx, double epoch_start);
  void process_epoch(Shard& shard, int shard_idx, double epoch_end);
  void run_epochs();
  void on_ping_timer(Shard& shard, double t, NodeId node);
  void on_delivered_ping(Shard& shard, const ShardEvent& ev);
  void on_delivered_pong(Shard& shard, double t_proc, const ShardEvent& ev);
  /// Appends the pong that answers `ev` (a ping, or a replay trace record)
  /// to the sender's owner: ev.a's current coordinate state at time `t`.
  /// The reference is valid until the shard's next append to that cell.
  ShardEvent& answer_with_pong(Shard& shard, const ShardEvent& ev, double t);
  /// Replay reader (a reading shard's processing phase): routes every
  /// record with t < t_limit to the observed node's owner as a kObs
  /// event. Single-source replay runs one reader on shard 0; partitioned
  /// replay runs one per shard over its own slice. Throws CheckError on a
  /// time that is not finite, negative, or below the reader's last one.
  void read_trace_until(int shard_idx, double t_limit);
  DirLink& link_at(Shard& shard, NodeId src, NodeId dst, double t);
  /// Stamps the shard's owned nodes for the pending publish: into the staged
  /// full buffer when one is staged (base epochs / full mode), and — in
  /// delta mode — diffs each owned slot against the last-published mirror,
  /// appending changed slots to the shard's dirty lane and updating the
  /// mirror. Owned slots only (disjoint writes, ordered before the publish
  /// by the epoch barriers).
  void write_snapshot_slice(int shard_idx, const Shard& shard);

  // --- Dynamic ownership (rebalance_interval_epochs > 0) ------------------
  /// Top of a rebalance-decision epoch's delivery phase: every shard
  /// computes the IDENTICAL plan from the shared weight counters (stable
  /// since the last barrier) and applies it to its own routing copy, so all
  /// sends of this epoch already route to the post-barrier owners.
  void decide_rebalance(Shard& shard);
  /// End of the decision epoch's processing phase: the departing owner packs
  /// each migrating node it owns into the migration channel.
  void pack_departures(Shard& shard, int shard_idx);
  /// Top of the NEXT epoch's delivery phase (barrier-separated from the
  /// pack): owned lists are updated and arriving state is installed BEFORE
  /// node dynamics advance and the epoch's events deliver.
  void apply_migrations(Shard& shard, int shard_idx);

  Mode mode_;
  OnlineSimConfig config_;  // replay mode maps ReplayConfig onto this
  lat::Topology topology_;  // online mode only
  lat::LinkModelConfig link_config_;
  lat::AvailabilityConfig availability_;
  /// Scheduled route changes: one sorted step list per scheduled link,
  /// read-only once built, and the entry of each undirected link key, so
  /// lazy link initialization finds its schedule in O(1) instead of
  /// scanning the full list (regional-shift presets schedule O(n) links at
  /// once).
  lat::RouteSchedules route_schedules_;
  std::unordered_map<std::uint64_t, std::uint32_t> route_schedule_of_;

  // Node-indexed state; each element is touched only by its owner shard
  // during parallel phases (snapshots_ additionally read by all shards in
  // processing phases, barrier-separated from the owner's writes).
  std::vector<std::unique_ptr<NCClient>> clients_;
  std::vector<NeighborSet> neighbors_;   // online mode only
  std::vector<Rng> timer_rngs_;          // online mode only
  std::vector<std::uint64_t> msg_seq_;
  std::vector<NodeDyn> node_dyn_;        // online mode only
  std::vector<NodeSnapshot> snapshots_;  // online mode only

  std::vector<Shard> shards_;
  EpochMailbox mailbox_;

  /// Dynamic ownership state. ownership_ seeds the per-shard copies and,
  /// after the workers join, is re-synced from shard 0 so shard_of() /
  /// estimate_rtt() route to the final owners. node_weight_[id] counts the
  /// node's processed events since the last decision: incremented by the
  /// owner during processing phases, read by every shard at decision points
  /// in delivery phases, reset by the (current) owner right before the
  /// decision epoch's processing — all barrier-separated, so the shared
  /// vector needs no atomics.
  bool rebalancing_ = false;
  OwnershipMap ownership_;
  std::vector<std::uint32_t> node_weight_;
  /// Nodes that must never migrate (drift-tracked nodes: their collector
  /// state is pinned to the shard whose tracked subset names them).
  std::vector<std::uint8_t> pinned_;
  MigrationChannel<NodeMigration> migrations_;
  std::uint64_t migrated_ = 0;
  std::vector<double> busy_s_;

  /// Epoch-snapshot hand-off (config_.publish_snapshots). On a snapshot
  /// epoch shard 0 raises snap_publish_pending_ at the top of the iteration
  /// (before the delivery barrier) and acquires a full staging buffer when
  /// the publisher's next publish ships a base (always, in full mode);
  /// every shard stamps its owned slice after its processing phase, and
  /// shard 0 publishes at the top of the next iteration — all cross-thread
  /// hand-offs ordered by the epoch barriers.
  est::SnapshotPublisher publisher_;
  est::EpochSnapshot* snap_staging_ = nullptr;
  bool snap_publish_pending_ = false;
  /// Delta mode's diff reference: every node's state as of its last
  /// published record. Owner-only writes at the stamp step (same slice
  /// discipline as the staging buffer), so migration hand-offs carry it
  /// implicitly with ownership.
  std::vector<est::SnapshotNode> last_published_;

  /// One trace reader's cursor. readers_[s] is touched only by shard s's
  /// thread once the run starts (the priming reads happen before the
  /// workers launch); single-source replay activates readers_[0] only.
  struct ReaderState {
    lat::TraceSource* source = nullptr;
    std::optional<lat::TraceRecord> pending;
    std::uint64_t seq = 0;
    double last_t_s = 0.0;  // the next record may not be earlier
    bool done = true;
  };

  // Replay reader state.
  std::vector<ReaderState> readers_;
  /// Partitioned mode: each reading shard checks it owns every dst it reads
  /// (a mis-split trace would silently break the canonical event order).
  bool partitioned_ = false;

  std::uint64_t pings_sent_ = 0;
  std::uint64_t pings_lost_ = 0;
  std::uint64_t events_ = 0;
  bool ran_ = false;
};

}  // namespace nc::sim
