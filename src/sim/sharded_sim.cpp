#include "sim/sharded_sim.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <ctime>
#include <exception>
#include <string>
#include <thread>

#include "common/check.hpp"

namespace nc::sim {

namespace {

/// CPU time of the CALLING thread, the utilization basis of
/// shard_busy_seconds(): time blocked at an epoch barrier costs ~nothing, so
/// the per-shard spread reflects real work imbalance even on few cores.
double thread_cpu_seconds() noexcept {
#ifdef __linux__
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

MetricsConfig make_shard_metrics_config(const OnlineSimConfig& config,
                                        int num_nodes,
                                        std::vector<NodeId> tracked_subset) {
  MetricsConfig m;
  m.num_nodes = num_nodes;
  m.duration_s = config.duration_s;
  m.measure_start_s = config.measure_start_s;
  m.collect_timeseries = config.collect_timeseries;
  m.timeseries_bucket_s = config.timeseries_bucket_s;
  m.collect_oracle = config.collect_oracle;
  m.tracked_nodes = std::move(tracked_subset);
  return m;
}

std::uint64_t directed_key(NodeId src, NodeId dst) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
}

/// Undirected link key (same derivation as LatencyNetwork's): controlled
/// route changes apply to both directions of a link.
std::uint64_t undirected_key(NodeId i, NodeId j) noexcept {
  return directed_key(std::min(i, j), std::max(i, j));
}

/// How many lane events ahead process_epoch prefetches handler state for:
/// the best of {3, 6, 12, 24} on online-churn (DESIGN.md Sec. 8).
constexpr std::size_t kLanePrefetchDistance = 12;

ShardEvent make_event(double t, ShardEventKind kind, NodeId a = kInvalidNode) {
  ShardEvent ev;
  ev.t = t;
  ev.kind = kind;
  ev.a = a;
  return ev;
}

/// The mailbox, each cell's runs presized for one epoch of what the mode
/// sends. Online: a shard's ~n/W nodes each send about a ping, a pong and a
/// dst-error record, spread over W receivers. Replay: a reading shard
/// routes ~n/W trace records per epoch; dst-error records spread as online.
EpochMailbox make_mailbox(int num_nodes, int shards, bool replay) {
  if (shards < 1) return EpochMailbox(shards);  // rejects the shard count
  const auto n = static_cast<std::size_t>(num_nodes);
  const auto w = static_cast<std::size_t>(shards);
  return EpochMailbox(shards, (replay ? n / w : 2 * n / (w * w)) + 8,
                      n / (w * w) + 8);
}

OnlineSimConfig replay_as_engine_config(const ReplayConfig& config) {
  OnlineSimConfig oc;
  oc.client = config.client;
  oc.duration_s = config.duration_s;
  oc.measure_start_s = config.measure_start_s;
  oc.ping_interval_s = config.epoch_s;  // the kernel's epoch length
  oc.collect_timeseries = config.collect_timeseries;
  oc.timeseries_bucket_s = config.timeseries_bucket_s;
  oc.collect_oracle = config.collect_oracle;
  oc.tracked_nodes = config.tracked_nodes;
  oc.track_interval_s = config.track_interval_s;
  oc.estimator = config.estimator;
  oc.publish_snapshots = config.publish_snapshots;
  oc.snapshot_interval_epochs = config.snapshot_interval_epochs;
  oc.snapshot_deltas = config.snapshot_deltas;
  oc.snapshot_base_interval = config.snapshot_base_interval;
  oc.rebalance_interval_epochs = config.rebalance_interval_epochs;
  oc.rebalance_max_moves = config.rebalance_max_moves;
  return oc;
}

}  // namespace

ShardedEngine::ShardedEngine(const OnlineSimConfig& config, int shards,
                             lat::Topology topology,
                             const lat::LinkModelConfig& link_config,
                             const lat::AvailabilityConfig& availability,
                             std::vector<ShardedRouteChange> route_changes)
    : mode_(Mode::kOnline),
      config_(config),
      topology_(std::move(topology)),
      link_config_(link_config),
      availability_(availability),
      mailbox_(make_mailbox(topology_.size(), shards, false)) {
  const int n = topology_.size();
  NC_CHECK_MSG(shards >= 1, "need at least one shard");
  // Same validation the retired classic path got from schedule_route_change:
  // fail the bad spec up front, not deep inside a worker thread mid-run.
  // Schedules are indexed by undirected link so lazy link initialization
  // finds its steps in O(1) — preset schedules touch O(n) links at once.
  for (const ShardedRouteChange& rc : route_changes) {
    NC_CHECK_MSG(rc.factor > 0.0, "route factor must be positive");
    NC_CHECK_MSG(rc.i >= 0 && rc.i < n && rc.j >= 0 && rc.j < n && rc.i != rc.j,
                 "bad route-change link");
    const auto [it, fresh] = route_schedule_of_.try_emplace(
        undirected_key(rc.i, rc.j),
        static_cast<std::uint32_t>(route_schedules_.size()));
    if (fresh) route_schedules_.emplace_back();
    route_schedules_[it->second].emplace_back(rc.at_t, rc.factor);
  }
  for (lat::RouteSteps& steps : route_schedules_)
    std::sort(steps.begin(), steps.end());

  NC_CHECK_MSG(config.bootstrap_degree >= 1, "need at least one bootstrap peer");
  NC_CHECK_MSG(config.bootstrap_degree < n,
               "bootstrap_degree must leave at least one non-peer "
               "(fewer distinct peers than requested exist)");
  NC_CHECK_MSG(config.ping_interval_s > 0.0, "ping interval must be positive");
  NC_CHECK_MSG(config.tracked_nodes.empty() || config.track_interval_s > 0.0,
               "tracking requires a positive track interval");

  // Per-node clients, neighbor sets and ping-timer streams, all derived
  // from config.seed: identical at any shard count, because every draw
  // comes from a node's own stream.
  clients_.reserve(static_cast<std::size_t>(n));
  neighbors_.reserve(static_cast<std::size_t>(n));
  timer_rngs_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    clients_.push_back(std::make_unique<NCClient>(id, config.client));
    neighbors_.emplace_back(
        config.neighbor_capacity,
        hash_combine(config.seed, static_cast<std::uint64_t>(id)));
    timer_rngs_.push_back(Rng::derived(config.seed, rngstream::kPingTimer,
                                       static_cast<std::uint64_t>(id)));
  }
  // Bootstrap membership: every node knows `bootstrap_degree` DISTINCT
  // random peers, drawn from its own kBootstrap stream.
  for (NodeId id = 0; id < n; ++id) {
    Rng boot = Rng::derived(config.seed, rngstream::kBootstrap,
                            static_cast<std::uint64_t>(id));
    int added = 0;
    while (added < config.bootstrap_degree) {
      const auto peer = static_cast<NodeId>(boot.uniform_int(static_cast<std::uint64_t>(n)));
      if (peer == id) continue;
      if (neighbors_[static_cast<std::size_t>(id)].add(peer)) ++added;
    }
  }
  msg_seq_.assign(static_cast<std::size_t>(n), 0);
  node_dyn_.resize(static_cast<std::size_t>(n));
  snapshots_.resize(static_cast<std::size_t>(n));

  init_snapshot_publication(shards, n);
  init_shards(shards, n);
}

ShardedEngine::ShardedEngine(const ReplayConfig& config, int num_nodes)
    : mode_(Mode::kReplay),
      config_(replay_as_engine_config(config)),
      mailbox_(make_mailbox(num_nodes, config.shards, true)) {
  NC_CHECK_MSG(config.shards >= 1, "need at least one shard");
  NC_CHECK_MSG(num_nodes >= 1, "need at least one node");
  NC_CHECK_MSG(config.epoch_s > 0.0, "epoch length must be positive");
  NC_CHECK_MSG(config.tracked_nodes.empty() || config.track_interval_s > 0.0,
               "tracking requires a positive track interval");

  clients_.reserve(static_cast<std::size_t>(num_nodes));
  for (NodeId id = 0; id < num_nodes; ++id)
    clients_.push_back(std::make_unique<NCClient>(id, config.client));
  msg_seq_.assign(static_cast<std::size_t>(num_nodes), 0);

  init_snapshot_publication(config.shards, num_nodes);
  init_shards(config.shards, num_nodes);
}

void ShardedEngine::init_snapshot_publication(int shards, int num_nodes) {
  // The snapshot backend reads its primary state off a publisher; when the
  // spec names none, the engine is it — turn publication on and point every
  // shard instance (built right after, in init_shards) at publisher_.
  if (config_.estimator.backend == est::EstimatorBackend::kSnapshot) {
    config_.publish_snapshots = true;
    if (config_.estimator.snapshot_source == nullptr)
      config_.estimator.snapshot_source = &publisher_;
  }
  NC_CHECK_MSG(!config_.publish_snapshots ||
                   config_.snapshot_interval_epochs >= 1,
               "snapshot interval must be >= 1 epoch");
  if (config_.publish_snapshots && config_.snapshot_deltas) {
    NC_CHECK_MSG(config_.snapshot_base_interval >= 1,
                 "snapshot base interval must be >= 1 publish");
    publisher_.enable_deltas(config_.snapshot_base_interval, shards);
    // The diff reference starts all-default; the first publish's companion
    // delta therefore carries every node once, and churn-proportional
    // records from there on.
    last_published_.assign(static_cast<std::size_t>(num_nodes),
                           est::SnapshotNode{});
  }
}

void ShardedEngine::init_shards(int shards, int num_nodes) {
  NC_CHECK_MSG(config_.rebalance_interval_epochs >= 0,
               "rebalance interval must be >= 0 epochs");
  NC_CHECK_MSG(config_.rebalance_max_moves >= 0,
               "rebalance move budget must be >= 0");
  // At one shard every plan is empty by construction; keep the whole
  // machinery off so shards=1 stays the reference semantics bit-for-bit.
  rebalancing_ = config_.rebalance_interval_epochs > 0 && shards > 1;
  ownership_ = OwnershipMap(num_nodes, shards);
  if (rebalancing_) {
    node_weight_.assign(static_cast<std::size_t>(num_nodes), 0);
    pinned_.assign(static_cast<std::size_t>(num_nodes), 0);
    // Drift-tracked nodes are pinned: their tick series lives in the
    // tracked subset of one shard's collector, which never migrates.
    for (NodeId id : config_.tracked_nodes) {
      NC_CHECK_MSG(id >= 0 && id < num_nodes, "tracked node out of range");
      pinned_[static_cast<std::size_t>(id)] = 1;
    }
    migrations_ = MigrationChannel<NodeMigration>(shards);
  }

  shards_.resize(static_cast<std::size_t>(shards));
  for (NodeId id = 0; id < num_nodes; ++id)
    shards_[static_cast<std::size_t>(shard_of(id))].owned.push_back(id);

  for (auto& shard : shards_) {
    shard.ownership = ownership_;
    // Directed-link state indexed (src, dst), lazily stream-seeded on first
    // touch. Online mode only — replay traffic carries its RTTs in the
    // trace, so replay shards own no link state at all. Rows span the whole
    // id space (an untouched row costs one empty index), so a migration is
    // a row hand-off between stores whatever the partition.
    if (mode_ == Mode::kOnline)
      shard.links = ShardLinkStore<DirLink>(static_cast<std::size_t>(num_nodes),
                                            static_cast<std::size_t>(num_nodes));

    std::vector<NodeId> tracked;
    for (NodeId id : config_.tracked_nodes) {
      NC_CHECK_MSG(id >= 0 && id < num_nodes, "tracked node out of range");
      if (shard_of(id) == static_cast<int>(&shard - shards_.data()))
        tracked.push_back(id);
    }
    shard.collector = std::make_unique<MetricsCollector>(
        make_shard_metrics_config(config_, num_nodes, std::move(tracked)));
    // The shard's estimation backend instance, fed only its owned nodes'
    // observations.
    shard.estimator = est::make_estimator(config_.estimator, num_nodes);
    // Staggered first pings for the shard's nodes, one phase draw per node
    // from its own stream (online mode; replay has no timers).
    if (mode_ == Mode::kOnline) {
      for (NodeId id : shard.owned)
        shard.queue.push(make_event(
            timer_rngs_[static_cast<std::size_t>(id)].uniform(0.0, config_.ping_interval_s),
            ShardEventKind::kPingTimer, id));
    }
    // Drift-tracking ticks at exact multiples of the interval, plus the
    // final duration_s sample recorded after the last epoch.
    if (!shard.collector->config().tracked_nodes.empty()) {
      for (double t = config_.track_interval_s; t < config_.duration_s;
           t += config_.track_interval_s)
        shard.queue.push(make_event(t, ShardEventKind::kTrack));
    }
  }
}

int ShardedEngine::shard_of(NodeId id) const noexcept {
  // The ownership table seeds to the block partition shard_of_node computes
  // (contiguous id ranges; shared with lat::partition_trace, which splits
  // replay traces by that same static function). Without rebalancing the
  // two never differ; with it, this is the CURRENT owner — re-synced from
  // shard 0 once the workers join, so post-run routing (estimate_rtt) hits
  // the shard that actually holds the node's estimator state.
  return ownership_.owner(id);
}

void ShardedEngine::advance_node_dyn(NodeId id, double t) {
  NodeDyn& s = node_dyn_[static_cast<std::size_t>(id)];
  if (!s.initialized) {
    s.initialized = true;
    s.rng = Rng::derived(config_.seed, rngstream::kNode,
                         static_cast<std::uint64_t>(id));
    s.dyn.init(s.rng, t, link_config_, availability_);
  }
  s.dyn.advance(s.rng, t, link_config_, availability_);
  bool up = s.dyn.up;
  // Staged-rollout skew: an override AFTER the advance, so the node's RNG
  // stream is untouched and the workload stays placement-independent.
  if (up && id < availability_.staged_down_count &&
      t < availability_.staged_join_s)
    up = false;
  snapshots_[static_cast<std::size_t>(id)] =
      NodeSnapshot{static_cast<std::uint8_t>(up ? 1 : 0), s.dyn.burst_end_t};
}

ShardedEngine::DirLink& ShardedEngine::link_at(Shard& shard, NodeId src,
                                               NodeId dst, double t) {
  static_assert(sizeof(DirLink) == 88, "stream and dynamics");
  DirLink& s = shard.links.at(static_cast<std::size_t>(src),
                              static_cast<std::size_t>(dst));
  if (!s.dyn.initialized) {
    s.dyn.initialized = true;
    s.rng = Rng::derived(config_.seed, rngstream::kDirectedLink,
                         directed_key(src, dst));
    s.dyn.init(s.rng, t, link_config_);
    if (const auto it = route_schedule_of_.find(undirected_key(src, dst));
        it != route_schedule_of_.end()) {
      s.dyn.schedule = it->second;
      s.dyn.route_changes_frozen = true;  // controlled steps stay clean
    }
  }
  s.dyn.advance(s.rng, t, link_config_, route_schedules_);
  return s;
}

void ShardedEngine::deliver_batch(Shard& shard, int shard_idx,
                                  double epoch_start) {
  // Dst-error records commute with everything in the epoch: only the
  // per-destination order matters, and the canonical merge fixes it.
  mailbox_.collect_dst_errors_into(shard_idx, shard.dst_errors);
  for (const DstErrorRecord& rec : shard.dst_errors)
    shard.collector->record_dst_error(rec.t, rec.to, rec.err);
  // Clamped to the epoch start so per-entity time never runs backwards;
  // one bulk hand-off, as thousands of deliveries share that exact time.
  mailbox_.collect_events_into(shard_idx, epoch_start, shard.staging);
  shard.queue.push_batch(shard.staging);
}

void ShardedEngine::process_epoch(Shard& shard, int shard_idx,
                                  double epoch_end) {
  while (shard.queue.has_event_before(epoch_end)) {
    // The handlers' first touch of node state is an index-bucket miss:
    // issue it a few events early so it overlaps the work in between.
    if (const ShardEvent* ahead = shard.queue.lane_ahead(kLanePrefetchDistance)) {
      const auto owner = static_cast<std::size_t>(ahead->a);
      if (ahead->kind == ShardEventKind::kPing) {
        neighbors_[owner].prefetch(ahead->b);
        if (ahead->gossip != kInvalidNode) neighbors_[owner].prefetch(ahead->gossip);
      } else if (ahead->kind == ShardEventKind::kPong) {
        clients_[owner]->prefetch_link(ahead->b);
      }
    }
    const ShardEvent ev = shard.queue.pop();
    if (ev.t >= config_.duration_s) continue;  // final partial epoch
    // Track ticks are bookkeeping, not simulation events: every shard that
    // owns a tracked node carries its own copy of the tick series, so
    // counting them would make events_processed() depend on the partition.
    if (ev.kind != ShardEventKind::kTrack) {
      ++shard.events;
      // Rebalance weight: the owner counts every event its node consumes;
      // decision points read the shared counters at barriers only.
      if (rebalancing_) ++node_weight_[static_cast<std::size_t>(ev.a)];
    }
    switch (ev.kind) {
      case ShardEventKind::kTrack:
        for (NodeId id : shard.collector->config().tracked_nodes)
          shard.collector->track_coordinate(ev.t, id,
                                            client(id).system_coordinate());
        break;
      case ShardEventKind::kPingTimer:
        on_ping_timer(shard, ev.t, ev.a);
        break;
      case ShardEventKind::kPing:
        on_delivered_ping(shard, ev);
        break;
      case ShardEventKind::kPong:
        on_delivered_pong(shard, ev.t, ev);
        break;
      case ShardEventKind::kObs:
        // A trace record reached the OBSERVED node's owner: answer it
        // exactly like a ping, at the record's own timestamp. The recorded
        // source node observes the pong one hand-off later.
        (void)answer_with_pong(shard, ev, ev.t_orig);
        break;
    }
  }
  // Replay: reading shards double as readers (shard 0 alone for a single
  // source; every shard over its own slice when partitioned). Reading one
  // epoch window AHEAD of the one just processed means a record reaches its
  // observed node's shard in the epoch that contains the record's own
  // timestamp (so the state stamp happens at exact record time, unclamped).
  if (mode_ == Mode::kReplay &&
      static_cast<std::size_t>(shard_idx) < readers_.size() &&
      readers_[static_cast<std::size_t>(shard_idx)].source != nullptr)
    read_trace_until(shard_idx, epoch_end + config_.ping_interval_s);
}

void ShardedEngine::on_ping_timer(Shard& shard, double t, NodeId node) {
  // Re-arm first so churned/idle nodes keep their cadence.
  const double jitter = timer_rngs_[static_cast<std::size_t>(node)].uniform(
      -config_.ping_jitter_s, config_.ping_jitter_s);
  shard.queue.push(make_event(t + std::max(0.1, config_.ping_interval_s + jitter),
                              ShardEventKind::kPingTimer, node));

  if (!snapshots_[static_cast<std::size_t>(node)].up) return;

  auto& nbrs = neighbors_[static_cast<std::size_t>(node)];
  const auto target = nbrs.next_round_robin();
  if (!target.has_value()) return;

  ++shard.pings_sent;
  if (!snapshots_[static_cast<std::size_t>(*target)].up) {
    ++shard.pings_lost;  // target down: the ping times out
    return;
  }

  DirLink& link = link_at(shard, node, *target, t);
  if (link.rng.bernoulli(link_config_.loss_prob)) {
    ++shard.pings_lost;
    return;
  }

  // Same observation model as LatencyNetwork::sample_rtt (shared pipeline),
  // on the directed link's own stream; overload windows come from the epoch
  // snapshots.
  const bool overload =
      t < snapshots_[static_cast<std::size_t>(node)].burst_end_t ||
      t < snapshots_[static_cast<std::size_t>(*target)].burst_end_t;
  const double base = topology_.base_rtt_ms(node, *target) * link.dyn.route_factor;
  const double rtt = lat::sample_noisy_rtt(link.rng, base, overload,
                                           t < link.dyn.burst_end_t, link_config_);

  // Route with the shard's OWN ownership view: at a rebalance epoch it was
  // advanced to the post-barrier owners before any send, which is exactly
  // who collects this outbox at the next hand-off.
  ShardEvent& ping =
      mailbox_.append(shard_idx_of(shard), shard.ownership.owner(*target));
  ping.t = ping.t_orig = t;
  ping.kind = ShardEventKind::kPing;
  ping.a = *target;
  ping.b = node;
  ping.seq = msg_seq_[static_cast<std::size_t>(node)]++;
  ping.rtt_ms = static_cast<float>(rtt);
  if (config_.collect_oracle) ping.gt_rtt_ms = base;
  // The ping gossips one of the sender's neighbors (never the target
  // itself) and introduces the sender.
  if (const auto g = nbrs.random_neighbor(); g.has_value() && *g != *target)
    ping.gossip = *g;
}

void ShardedEngine::on_delivered_ping(Shard& shard, const ShardEvent& ev) {
  const NodeId receiver = ev.a;   // the pinged node
  const NodeId pinger = ev.b;
  auto& nbrs = neighbors_[static_cast<std::size_t>(receiver)];
  nbrs.add(pinger);
  if (ev.gossip != kInvalidNode && ev.gossip != receiver) nbrs.add(ev.gossip);

  ShardEvent& pong = answer_with_pong(
      shard, ev, ev.t_orig + static_cast<double>(ev.rtt_ms) / 1000.0);
  if (const auto g = nbrs.random_neighbor(); g.has_value() && *g != pinger)
    pong.gossip = *g;
}

ShardEvent& ShardedEngine::answer_with_pong(Shard& shard, const ShardEvent& ev,
                                            double t) {
  const auto responder = static_cast<std::size_t>(ev.a);
  const NCClient& cl = *clients_[responder];
  ShardEvent& pong =
      mailbox_.append(shard_idx_of(shard), shard.ownership.owner(ev.b));
  pong.t = pong.t_orig = t;
  pong.kind = ShardEventKind::kPong;
  pong.a = ev.b;
  pong.b = ev.a;
  pong.seq = msg_seq_[responder]++;
  pong.rtt_ms = ev.rtt_ms;
  pong.gt_rtt_ms = ev.gt_rtt_ms;
  // The responder's state as of reply time; the observer applies it on
  // arrival.
  pong.sys_coord = cl.system_coordinate();
  pong.app_coord = cl.application_coordinate();
  pong.coord_err = cl.error_estimate();
  return pong;
}

void ShardedEngine::on_delivered_pong(Shard& shard, double t_proc,
                                      const ShardEvent& ev) {
  const NodeId observer = ev.a;
  const NodeId remote = ev.b;
  if (ev.gossip != kInvalidNode && ev.gossip != observer)
    neighbors_[static_cast<std::size_t>(observer)].add(ev.gossip);

  NCClient& cl = *clients_[static_cast<std::size_t>(observer)];
  const ObservationOutcome outcome =
      cl.observe(remote, ev.sys_coord, ev.coord_err,
                 static_cast<double>(ev.rtt_ms), t_proc);

  // Feed the active estimation backend, then score ITS answer for the pair:
  // the accuracy metrics measure whatever backend the run selected. For the
  // coordinate backend the estimate right after the feed is exactly
  // src_app.distance_to(dst_app), which keeps the refactored engine
  // bit-identical to the pre-seam metrics.
  est::LatencyObservation obs;
  obs.src = observer;
  obs.dst = remote;
  obs.t_s = t_proc;
  obs.raw_rtt_ms = static_cast<double>(ev.rtt_ms);
  obs.src_app = cl.application_coordinate();
  obs.dst_app = ev.app_coord;
  shard.estimator->on_observation(obs);
  const std::optional<double> predicted =
      shard.estimator->estimate_rtt(observer, remote, t_proc);
  NC_ASSERT(predicted.has_value());  // the pair was observed this instant

  // Online runs stamp the oracle value at ping time, replay readers copy
  // the one the generator stamped into the record (run() requires such a
  // source under collect_oracle).
  std::optional<double> truth;
  if (config_.collect_oracle) truth = ev.gt_rtt_ms;

  const double err = shard.collector->on_observation(
      t_proc, observer, remote, static_cast<double>(ev.rtt_ms), *predicted,
      outcome, truth);

  // Route the destination-keyed error record to the destination's owner so
  // its streaming median sees one canonical input order.
  if (t_proc >= config_.measure_start_s && t_proc < config_.duration_s) {
    mailbox_.send_dst_error(
        shard_idx_of(shard), shard.ownership.owner(remote),
        DstErrorRecord{t_proc, observer, remote,
                       msg_seq_[static_cast<std::size_t>(observer)]++, err});
  }
}

void ShardedEngine::read_trace_until(int shard_idx, double t_limit) {
  ReaderState& reader = readers_[static_cast<std::size_t>(shard_idx)];
  if (reader.done) return;
  for (;;) {
    if (!reader.pending.has_value()) {
      reader.pending = reader.source->next();
      if (!reader.pending.has_value()) {
        reader.done = true;
        return;
      }
      // A NaN would break the queue key's strict weak order (and with it
      // W-invariance); a step back would be observed late, silently.
      // reader.seq counts the records read so far: this record's index.
      const double t = reader.pending->t_s;
      NC_CHECK_MSG(std::isfinite(t) && t >= reader.last_t_s,
                   "trace reader " + std::to_string(shard_idx) + ": record " +
                       std::to_string(reader.seq) + " has time " +
                       std::to_string(t) +
                       "; times must be finite, >= 0 and non-decreasing");
      reader.last_t_s = t;
    }
    const lat::TraceRecord& rec = *reader.pending;
    if (rec.t_s >= config_.duration_s) {
      // Records arrive in non-decreasing time order: nothing after this one
      // can be in range either (same early-out the serial driver had).
      reader.done = true;
      reader.pending.reset();
      return;
    }
    if (rec.t_s >= t_limit) return;  // next epoch's window; keep it pending
    NC_CHECK_MSG(rec.src >= 0 && rec.src < num_nodes(), "bad src id");
    NC_CHECK_MSG(rec.dst >= 0 && rec.dst < num_nodes(), "bad dst id");
    NC_CHECK_MSG(rec.src != rec.dst, "self-observation in trace");
    NC_CHECK_MSG(rec.rtt_ms > 0.0f, "non-positive rtt in trace");
    // A partitioned slice must hold exactly the reading shard's records; a
    // mis-split file would scramble the canonical merge order silently.
    // Deliberately the STATIC partition (the one lat::partition_trace split
    // by): readers stay bound to their original slice even after the record's
    // dst migrated — only the kObs routing below follows the dynamic owner.
    NC_CHECK_MSG(!partitioned_ ||
                     shard_of_node(rec.dst, num_nodes(),
                                   static_cast<int>(shards_.size())) ==
                         shard_idx,
                 "partitioned trace slice holds a foreign record");

    ShardEvent& obs = mailbox_.append(
        shard_idx,
        shards_[static_cast<std::size_t>(shard_idx)].ownership.owner(rec.dst));
    obs.t = obs.t_orig = rec.t_s;
    obs.kind = ShardEventKind::kObs;
    obs.a = rec.dst;  // the observed node: first stop of the record
    obs.b = rec.src;  // the observer
    obs.seq = reader.seq++;
    obs.rtt_ms = rec.rtt_ms;
    if (config_.collect_oracle) obs.gt_rtt_ms = rec.gt_rtt_ms;
    reader.pending.reset();
  }
}

void ShardedEngine::write_snapshot_slice(int shard_idx, const Shard& shard) {
  // Owned slots only: slices (and dirty lanes) are disjoint across shards,
  // so concurrent stamping needs no synchronization beyond the epoch
  // barriers that order it against the publish. Replay mode has no
  // availability process — every node is up by definition of the trace.
  // Published error/confidence describe the published (application)
  // coordinate — NCClient::app_error(), frozen at the coordinate's last
  // update — NOT the live Vivaldi estimate, which moves every observation
  // and would make every slot dirty every epoch.
  est::EpochSnapshot* snap = snap_staging_;
  std::vector<est::SnapshotDeltaEntry>* lane =
      config_.snapshot_deltas ? &publisher_.lane(shard_idx) : nullptr;
  for (NodeId id : shard.owned) {
    const auto i = static_cast<std::size_t>(id);
    const NCClient& cl = *clients_[i];
    est::SnapshotNode cur;
    cur.app = cl.application_coordinate();
    cur.error = cl.app_error();
    cur.confidence = cl.app_confidence();
    cur.up = mode_ == Mode::kOnline ? snapshots_[i].up : std::uint8_t{1};
    if (snap != nullptr) snap->nodes[i] = cur;
    if (lane != nullptr) {
      // Append only slots whose published record actually changes, and fold
      // the change into the mirror so the next stamp diffs against what this
      // publish ships. Migration-safe: the mirror slot moves with ownership,
      // and the barriers order the old owner's last stamp before the new
      // owner's first.
      est::SnapshotNode& prev = last_published_[i];
      if (!(prev == cur)) {
        lane->push_back({static_cast<std::uint32_t>(id), cur});
        prev = cur;
      }
    }
  }
}

void ShardedEngine::run() {
  NC_CHECK_MSG(mode_ == Mode::kOnline,
               "run() without a trace is online mode only");
  run_epochs();
}

void ShardedEngine::run(lat::TraceSource& source) {
  NC_CHECK_MSG(mode_ == Mode::kReplay, "run(trace) is replay mode only");
  NC_CHECK_MSG(source.num_nodes() <= num_nodes(),
               "trace has more nodes than driver");
  NC_CHECK_MSG(!config_.collect_oracle || source.stamps_ground_truth(),
               "collect_oracle needs a source that stamps ground truth into "
               "its records (a TraceGenerator); trace files carry none");
  readers_.resize(shards_.size());
  readers_[0] = ReaderState{&source, std::nullopt, 0, 0.0, false};
  // Prime the pipeline: epoch 0's records must already sit in the mailbox
  // when the first delivery phase collects it (each reader stays one window
  // ahead from here on). Runs before any worker launches, so sending from
  // the main thread is safe.
  read_trace_until(0, config_.ping_interval_s);
  run_epochs();
  readers_.clear();
}

void ShardedEngine::run_partitioned(
    const std::vector<lat::TraceSource*>& sources) {
  NC_CHECK_MSG(mode_ == Mode::kReplay,
               "run_partitioned(traces) is replay mode only");
  NC_CHECK_MSG(sources.size() == shards_.size(),
               "need exactly one trace slice per shard");
  NC_CHECK_MSG(!config_.collect_oracle,
               "partitioned replay cannot collect oracle metrics (trace slices "
               "carry no ground truth); use run(source) on the generator");
  partitioned_ = true;
  readers_.resize(shards_.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    NC_CHECK_MSG(sources[s] != nullptr, "null trace slice");
    NC_CHECK_MSG(sources[s]->num_nodes() <= num_nodes(),
                 "trace has more nodes than driver");
    readers_[s] = ReaderState{sources[s], std::nullopt, 0, 0.0, false};
  }
  // Prime every reader's first window (main thread; workers not launched).
  for (std::size_t s = 0; s < readers_.size(); ++s)
    read_trace_until(static_cast<int>(s), config_.ping_interval_s);
  run_epochs();
  readers_.clear();
}

void ShardedEngine::run_epochs() {
  NC_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;

  const double interval = config_.ping_interval_s;
  const auto epochs = static_cast<std::int64_t>(
      std::max(1.0, std::ceil(config_.duration_s / interval)));
  const auto W = static_cast<int>(shards_.size());

  std::barrier<> sync(static_cast<std::ptrdiff_t>(W));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(W));

  const auto work = [&](int s) noexcept {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    try {
      for (std::int64_t k = 0; k < epochs; ++k) {
        const double epoch_start = static_cast<double>(k) * interval;
        // Rebalance decisions happen at interval multiples, never at k == 0
        // (no weights yet) and never at the last epoch (the hand-off needs
        // one more epoch to land).
        const bool decide =
            rebalancing_ && k > 0 && k + 1 < epochs &&
            k % config_.rebalance_interval_epochs == 0;
        const double seg_delivery = thread_cpu_seconds();
        // Snapshot hand-off, shard 0, before the delivery barrier: ship
        // what every shard stamped during the PREVIOUS processing phase —
        // the staged full buffer and/or the dirty lanes; the content is the
        // boundary-k state, t = epoch_start — then arm the next publish
        // (acquiring a full staging buffer only when the publisher's next
        // publish ships a base; on delta epochs the lanes alone carry it).
        // Safe without extra locks — the previous epoch's stamp writes
        // happened before its second barrier, and peers only read the
        // pending flag after this epoch's first one.
        if (config_.publish_snapshots && s == 0) {
          if (snap_publish_pending_) {
            publisher_.publish(epoch_start);
            snap_staging_ = nullptr;
            snap_publish_pending_ = false;
          }
          if (k % config_.snapshot_interval_epochs == 0) {
            snap_publish_pending_ = true;
            if (publisher_.next_is_base())
              snap_staging_ = &publisher_.staging(num_nodes());
          }
        }
        // Dynamic ownership, top of the epoch: land the previous barrier's
        // migrations FIRST (owned lists + packed state), so this epoch's
        // node dynamics, deliveries and dst-error records already see the
        // new owner; then, on a decision epoch, advance the routing view so
        // every send below targets the post-barrier owners.
        if (rebalancing_) {
          apply_migrations(shard, s);
          if (decide) decide_rebalance(shard);
        }
        // Delivery phase: own node dynamics + own mailbox column only.
        if (mode_ == Mode::kOnline)
          for (NodeId id : shard.owned) advance_node_dyn(id, epoch_start);
        deliver_batch(shard, s, epoch_start);
        shard.busy_s += thread_cpu_seconds() - seg_delivery;
        sync.arrive_and_wait();
        const double seg_processing = thread_cpu_seconds();
        // The decision just consumed the weights (pre-barrier, identically
        // on every shard); start the next accumulation window at zero.
        if (decide)
          for (NodeId id : shard.owned)
            node_weight_[static_cast<std::size_t>(id)] = 0;
        // Processing phase: own entities; cross-shard state only via the
        // read-only snapshots and the outboxes.
        process_epoch(shard, s, static_cast<double>(k + 1) * interval);
        if (snap_publish_pending_) write_snapshot_slice(s, shard);
        // Departing nodes leave AFTER their last owned epoch is fully
        // processed and stamped; the receiver installs them right after the
        // barrier below.
        if (decide) pack_departures(shard, s);
        shard.busy_s += thread_cpu_seconds() - seg_processing;
        sync.arrive_and_wait();
      }
      // Destination error records emitted in the final epoch still count:
      // one last drain, applying only metric records (any in-flight
      // pings/pongs are past end-of-run, like the retired serial engines').
      mailbox_.collect_dst_errors_into(s, shard.dst_errors);
      for (const DstErrorRecord& rec : shard.dst_errors)
        shard.collector->record_dst_error(rec.t, rec.to, rec.err);
      // Close out the run: a final drift sample at duration_s, then flush
      // the collector's in-flight node-seconds.
      for (NodeId id : shard.collector->config().tracked_nodes)
        shard.collector->track_coordinate(config_.duration_s, id,
                                          client(id).system_coordinate());
      // Attach the shard backend's end-of-run introspection counters so the
      // collector merge rolls them into whole-run totals.
      shard.collector->set_estimator_stats(shard.estimator->stats());
      shard.collector->finalize();
    } catch (...) {
      errors[static_cast<std::size_t>(s)] = std::current_exception();
      sync.arrive_and_drop();  // release peers for all remaining phases
    }
  };

  if (W == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(W));
    for (int s = 0; s < W; ++s) threads.emplace_back(work, s);
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Adopt the final ownership view (all per-shard copies are identical) so
  // shard_of() / estimate_rtt() route to whoever holds each node's state
  // now, and surface the per-shard utilization basis.
  ownership_ = shards_[0].ownership;
  busy_s_.clear();
  for (const Shard& shard : shards_) busy_s_.push_back(shard.busy_s);

  // Always close the run with an end-of-run snapshot (workers are joined,
  // so the main thread stamps every slice itself): readers that outlive the
  // run — examples querying a finished engine, load generators draining
  // their last requests — see the final coordinates whatever the mid-run
  // publication cadence was.
  if (config_.publish_snapshots) {
    if (config_.snapshot_deltas && snap_publish_pending_) {
      // The last processing phase stamped dirty lanes (and folded them into
      // the mirror) for a publish that never ran; ship it first so the delta
      // chain stays gapless for incremental readers, then force the closing
      // publish to carry a full base.
      publisher_.publish(config_.duration_s);
      snap_staging_ = nullptr;
      snap_publish_pending_ = false;
    }
    publisher_.force_base_next();
    snap_staging_ = &publisher_.staging(num_nodes());
    for (std::size_t s = 0; s < shards_.size(); ++s)
      write_snapshot_slice(static_cast<int>(s), shards_[s]);
    publisher_.publish(config_.duration_s);
    snap_staging_ = nullptr;
    snap_publish_pending_ = false;
  }

  // Merge shard collectors in shard order; fixed-point sums make the merged
  // totals independent of this order anyway.
  for (std::size_t s = 1; s < shards_.size(); ++s)
    shards_[0].collector->merge(*shards_[s].collector);
  for (const Shard& shard : shards_) {
    pings_sent_ += shard.pings_sent;
    pings_lost_ += shard.pings_lost;
    events_ += shard.events;
  }
}

void ShardedEngine::decide_rebalance(Shard& shard) {
  // Identical inputs on every shard: the shared weight counters (last
  // written before the previous barrier) and this shard's ownership copy
  // (kept in lock-step by construction) — so W redundant evaluations of the
  // pure plan function replace any cross-shard agreement protocol.
  shard.pending_plan = plan_rebalance(shard.ownership, node_weight_, pinned_,
                                      config_.rebalance_max_moves);
  shard.ownership.apply(shard.pending_plan);
  if (shard_idx_of(shard) == 0)
    migrated_ += static_cast<std::uint64_t>(shard.pending_plan.size());
}

void ShardedEngine::pack_departures(Shard& shard, int shard_idx) {
  for (const RebalanceMove& m : shard.pending_plan) {
    if (m.from != shard_idx) continue;
    NodeMigration mig;
    mig.node = m.node;
    // Only initialized slots travel: an untouched (src, dst) link re-seeds
    // identically from its derived stream wherever it is first touched.
    if (mode_ == Mode::kOnline)
      shard.links.extract_row(static_cast<std::size_t>(m.node), mig.links,
                              [](const DirLink& l) { return l.dyn.initialized; });
    mig.estimator = shard.estimator->extract_node_state(m.node);
    mig.metrics = shard.collector->extract_node_state(m.node);
    shard.queue.extract_node_events(m.node, mig.pending);
    migrations_.outbox(shard_idx, m.to).push_back(std::move(mig));
  }
}

void ShardedEngine::apply_migrations(Shard& shard, int shard_idx) {
  if (shard.pending_plan.empty()) return;
  // Owned lists move to the post-barrier partition, kept sorted so epoch
  // iteration order (node dynamics, weight resets, snapshot slices) stays
  // id-ascending like the static block partition's.
  for (const RebalanceMove& m : shard.pending_plan) {
    if (m.from == shard_idx) {
      const auto it =
          std::lower_bound(shard.owned.begin(), shard.owned.end(), m.node);
      NC_ASSERT(it != shard.owned.end() && *it == m.node);
      shard.owned.erase(it);
    } else if (m.to == shard_idx) {
      shard.owned.insert(
          std::lower_bound(shard.owned.begin(), shard.owned.end(), m.node),
          m.node);
    }
  }
  shard.pending_plan.clear();

  migrations_.collect_into(shard_idx, shard.arrivals);
  // Canonical install order whatever the sender layout was.
  std::sort(shard.arrivals.begin(), shard.arrivals.end(),
            [](const NodeMigration& a, const NodeMigration& b) {
              return a.node < b.node;
            });
  std::uint64_t staged_bytes = 0;
  for (NodeMigration& mig : shard.arrivals) {
    staged_bytes += mig.payload_bytes();
    if (mode_ == Mode::kOnline)
      shard.links.install_row(static_cast<std::size_t>(mig.node), mig.links);
    shard.estimator->install_node_state(mig.node, mig.estimator);
    shard.collector->install_node_state(mig.node, std::move(mig.metrics));
    // The node's not-yet-processed events join this epoch's staging buffer
    // ahead of the delivered ones (which alone get clamped); push_batch
    // orders the union canonically.
    shard.staging.insert(shard.staging.end(), mig.pending.begin(),
                         mig.pending.end());
  }
  shard.rebalance_recv_hwm = std::max(shard.rebalance_recv_hwm, staged_bytes);
  shard.arrivals.clear();
}

std::optional<double> ShardedEngine::estimate_rtt(NodeId a, NodeId b,
                                                  double now_s) {
  NC_CHECK_MSG(a >= 0 && a < num_nodes() && b >= 0 && b < num_nodes(),
               "estimate_rtt endpoint out of range");
  return shards_[static_cast<std::size_t>(shard_of(a))].estimator->estimate_rtt(
      a, b, now_s);
}

est::EstimatorStats ShardedEngine::estimator_stats() const {
  est::EstimatorStats total;
  for (const Shard& shard : shards_) total.add(shard.estimator->stats());
  return total;
}

MemoryBudget ShardedEngine::memory_budget() const {
  MemoryBudget b;
  for (const auto& cl : clients_) b.client_bytes += cl->memory_bytes();
  for (const Shard& shard : shards_) {
    b.link_bytes += shard.links.memory_bytes();
    b.estimator_bytes += shard.estimator->stats().memory_bytes;
    b.queue_bytes += shard.queue.memory_bytes() +
                     shard.dst_errors.capacity() * sizeof(DstErrorRecord) +
                     shard.staging.capacity() * sizeof(ShardEvent);
    b.collector_bytes += shard.collector->memory_bytes();
  }
  b.mailbox_bytes = mailbox_.memory_bytes();
  for (const NeighborSet& ns : neighbors_)  // empty in replay mode
    b.neighbor_bytes += ns.memory_bytes();
  // Both 0 with publication off; the delta side is 0 in full-publication
  // mode. The last-published mirror is base-side state: O(n) full records,
  // whichever mode.
  b.snapshot_base_bytes =
      publisher_.base_memory_bytes() +
      last_published_.capacity() * sizeof(est::SnapshotNode);
  b.snapshot_delta_bytes = publisher_.delta_memory_bytes();
  // Dynamic-ownership overhead: the routing tables (engine + per-shard
  // copies), the weight/pin counters, and the high-water mark of migration
  // payloads staged across one barrier.
  b.rebalance_bytes = ownership_.memory_bytes();
  for (const Shard& shard : shards_)
    b.rebalance_bytes +=
        shard.ownership.memory_bytes() + shard.rebalance_recv_hwm;
  b.rebalance_bytes += node_weight_.capacity() * sizeof(std::uint32_t) +
                       pinned_.capacity() * sizeof(std::uint8_t);
  return b;
}

MetricsCollector& ShardedEngine::metrics() noexcept {
  return *shards_[0].collector;
}

const MetricsCollector& ShardedEngine::metrics() const noexcept {
  return *shards_[0].collector;
}

}  // namespace nc::sim
