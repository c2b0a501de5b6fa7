// Stochastic per-link latency observation model.
//
// A real deployment never sees the quiescent RTT; it sees a stream shaped by
// queueing, scheduling and routing (paper Sec. III: samples on one link span
// two orders of magnitude; 0.4% of all samples exceed one second; long pings
// recur across the whole trace). LatencyNetwork layers, per sample:
//
//   1. base RTT from the ground-truth topology,
//   2. a slowly-varying per-link route factor (BGP route changes),
//   3. multiplicative lognormal body jitter,
//   4. additive overload delay while either endpoint is in a node-overload
//      window (PlanetLab CPU contention was notorious),
//   5. heavy-tailed Pareto spikes — at a small background rate always, and
//      at a high rate inside per-link delay-burst windows,
//   6. a cap at the application ping timeout,
//   7. packet loss and node up/down churn (lost samples return nullopt).
//
// All stochastic state is derived deterministically from the master seed, so
// a (topology, config, seed) triple defines one reproducible network.
// Time must be non-decreasing per link/node (the trace generator samples
// in time order). The sharded engine's online mode does not share this
// object: it runs the same LinkDynamics / NodeDynamics state machines on
// its own per-shard state.
//
// One ping is two stages on disjoint streams. The node stage (the overload
// windows of 4, the up/down churn of 7) draws only the two endpoints' node
// streams. The link stage (1-3, 5, 6 and the packet loss of 7) draws only
// the link's own stream. sample_rtt runs both in turn. The trace generator
// runs the node stage serially in schedule order and the link stage on
// several threads: each thread owns one link lane, and links are split
// across lanes by their lower id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/link_store.hpp"
#include "common/rng.hpp"
#include "core/node_id.hpp"
#include "latency/topology.hpp"

namespace nc::lat {

struct LinkModelConfig {
  // Body jitter: rtt *= lognormal(-sigma^2/2, sigma), unit mean. Wide-area
  // latency bodies are tight (Fig. 3: a narrow common case with a detached
  // heavy tail), so the body is a few percent and the tail does the damage.
  double body_sigma = 0.04;

  // Heavy-tail spikes: rtt += Pareto(xm, alpha), xm ~ U[xm_min, xm_max].
  double base_spike_prob = 0.005;   // background, outside any burst
  double burst_spike_prob = 0.40;   // inside a link delay burst
  double spike_xm_min_ms = 100.0;
  double spike_xm_max_ms = 500.0;
  double spike_alpha = 1.05;        // infinite-variance tail
  double rtt_cap_ms = 30000.0;      // application ping timeout

  // Per-link delay-burst windows (congestion episodes).
  double link_burst_rate_hz = 1.0 / 2400.0;  // ~1 per 40 min per link
  double link_burst_mean_duration_s = 40.0;

  // Per-node overload windows (host CPU contention slows all its links).
  double node_burst_rate_hz = 1.0 / 3000.0;
  double node_burst_mean_duration_s = 25.0;
  double node_overload_extra_min_ms = 15.0;
  double node_overload_extra_max_ms = 250.0;
  double node_overload_spike_prob = 0.12;

  // Route changes: base RTT multiplied by a factor redrawn at Poisson times.
  double route_change_rate_hz = 1.0 / (8.0 * 3600.0);
  double route_factor_min = 0.55;
  double route_factor_max = 1.9;

  double loss_prob = 0.03;  // per-ping packet loss

  /// The original Vivaldi evaluation's world: a static latency matrix. Every
  /// sample returns exactly the quiescent base RTT — no jitter, spikes,
  /// bursts, route changes or loss. Used by ablation benches to show why an
  /// evaluation on fixed l_ij could not see the instability this paper fixes.
  [[nodiscard]] static LinkModelConfig noiseless();
};

struct AvailabilityConfig;

/// Next Poisson event time after `t`; rate 0 means "never" (1e18).
[[nodiscard]] double next_poisson_event_after(Rng& rng, double t, double rate_hz);

/// One link's controlled route steps, (at_t, factor) sorted ascending.
using RouteSteps = std::vector<std::pair<double, double>>;

/// The scheduled steps of every link that has any, owned by the table that
/// owns the links (LatencyNetwork, the sharded engine). Almost no link has
/// a schedule, so a link only names its entry by index and keeps a cursor
/// into it: eight bytes per link. An index, not a pointer, so a moved
/// owner's links stay valid.
using RouteSchedules = std::vector<RouteSteps>;

/// The stochastic processes of one link (route factor + delay bursts),
/// shared by LatencyNetwork's undirected links and the sharded engine's
/// directed links so trace generation and online runs can never drift
/// apart. The draw ORDER on `rng` (init: route change then burst; advance:
/// random route changes, scheduled steps, bursts) is part of every seed's
/// defined trace — never reorder it.
struct LinkDynamics {
  static constexpr std::uint32_t kNoSchedule = ~std::uint32_t{0};

  double route_factor = 1.0;
  double next_route_change_t = 0.0;
  double burst_end_t = -1.0;
  double next_burst_t = 0.0;
  /// The link's entry in its owner's RouteSchedules, or kNoSchedule.
  std::uint32_t schedule = kNoSchedule;
  /// Steps of that entry already applied; the rest are pending.
  std::uint32_t schedule_cursor = 0;
  bool route_changes_frozen = false;
  /// Set at first touch, once the link's stream is seeded.
  bool initialized = false;

  /// First-touch initialization at time t (draws the first event times).
  void init(Rng& rng, double t, const LinkModelConfig& config);
  /// Advances route-factor/burst state to time t (t non-decreasing),
  /// applying the due steps of the link's entry in `schedules`.
  void advance(Rng& rng, double t, const LinkModelConfig& config,
               const RouteSchedules& schedules);
};
static_assert(sizeof(LinkDynamics) == 48, "four times, two indexes, two flags");

/// One node's availability (up/down churn) and overload-burst processes,
/// shared by LatencyNetwork and the sharded engine. Same draw-order
/// contract as LinkDynamics (init: initial up, first toggle, first burst;
/// advance: toggles then bursts).
struct NodeDynamics {
  bool up = true;
  double next_toggle_t = 0.0;
  double burst_end_t = -1.0;
  double next_burst_t = 0.0;

  void init(Rng& rng, double t, const LinkModelConfig& config,
            const AvailabilityConfig& availability);
  void advance(Rng& rng, double t, const LinkModelConfig& config,
               const AvailabilityConfig& availability);
};

/// The post-loss RTT observation pipeline shared by LatencyNetwork and the
/// sharded engine's directed links: lognormal body jitter on base_rtt_ms,
/// overload extra delay, burst/overload/base spike-probability selection
/// with a Pareto spike, then the timeout cap. The draw ORDER on `rng` is
/// part of every seed's defined trace — never reorder it.
[[nodiscard]] double sample_noisy_rtt(Rng& rng, double base_rtt_ms, bool overload,
                                      bool in_link_burst,
                                      const LinkModelConfig& config);

struct AvailabilityConfig {
  bool enabled = true;
  double mean_up_s = 18.0 * 3600.0;
  double mean_down_s = 4.0 * 3600.0;
  double initial_up_prob = 0.85;

  /// Staged-rollout skew: the `staged_down_count` LOWEST node ids are forced
  /// down until `staged_join_s`, then rejoin their normal churn process. The
  /// sharded engine applies this as an override AFTER NodeDynamics advances,
  /// so no RNG stream shifts — the workload stays bit-identical at any
  /// placement. It concentrates early load on the high-id region, the
  /// bench_rebalance imbalance driver. LatencyNetwork ignores these fields
  /// (its consumers sample links, not the engine's epoch snapshots).
  int staged_down_count = 0;
  double staged_join_s = 0.0;
};

/// The node stage's verdict on one ping i -> j.
struct PingNodes {
  bool target_up = false;  // false: the ping times out at a down target
  bool overload = false;   // either endpoint inside an overload burst
};

/// The link stage's outcome for one ping whose target is up.
struct LinkSample {
  std::optional<double> rtt_ms;  // nullopt: the packet was lost
  double truth_ms = 0.0;         // ground_truth_rtt at the sample time
};

class LatencyNetwork {
 public:
  /// `link_lanes` >= 1 splits the undirected link state into that many
  /// independent tables (lane = lower id mod link_lanes). Link stages on
  /// different lanes touch disjoint memory, so one thread per lane may
  /// run them concurrently. Results never depend on the lane count.
  LatencyNetwork(Topology topology, LinkModelConfig link_config,
                 AvailabilityConfig availability, std::uint64_t seed,
                 int link_lanes = 1);

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const LinkModelConfig& link_config() const noexcept { return config_; }
  [[nodiscard]] const AvailabilityConfig& availability() const noexcept {
    return availability_;
  }
  /// One application-level ping i -> j at time t. nullopt: the ping was lost
  /// or the target is down. Does not check whether i itself is up — a down
  /// node simply should not call (see node_up()). Runs node_stage, then
  /// link_stage when the target is up.
  [[nodiscard]] std::optional<double> sample_rtt(NodeId i, NodeId j, double t);

  /// Stage one of a ping i -> j at t: advances both endpoints' node
  /// processes to t. Draws node streams only.
  [[nodiscard]] PingNodes node_stage(NodeId i, NodeId j, double t);

  /// Stage two, for a ping whose target is up: advances link {i, j} to t,
  /// draws the loss and then the noisy RTT, and reports the ground truth
  /// at t. Draws the link's own stream only and touches only lane
  /// link_lane(i, j), so stages on different lanes may run concurrently.
  [[nodiscard]] LinkSample link_stage(NodeId i, NodeId j, double t, bool overload);

  [[nodiscard]] int link_lanes() const noexcept {
    return static_cast<int>(lanes_.size());
  }
  [[nodiscard]] int link_lane(NodeId i, NodeId j) const noexcept {
    return std::min(i, j) % link_lanes();
  }

  /// Effective quiescent RTT (base x current route factor): the oracle a
  /// real deployment lacks, used for ground-truth error metrics.
  [[nodiscard]] double ground_truth_rtt(NodeId i, NodeId j, double t);

  [[nodiscard]] bool node_up(NodeId i, double t);

  /// Forces a route change on link (i, j) at time t and suppresses further
  /// random route changes on it — the route-change adaptation experiments
  /// need a single controlled step.
  void force_route_change(NodeId i, NodeId j, double factor, double t);

  /// Schedules a controlled route change to take effect once the link is
  /// next sampled at or after `at_t` (also freezes random route changes on
  /// that link so the step stays clean). Must be scheduled before the link
  /// reaches `at_t`. Steps already applied are gone; the new one joins the
  /// link's pending steps in (at_t, factor) order. Writes the shared
  /// route-schedule table, so never while link stages run concurrently.
  void schedule_route_change(NodeId i, NodeId j, double factor, double at_t);

  /// sample_rtt calls so far, and how many of them lost the ping.
  [[nodiscard]] std::uint64_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t loss_count() const noexcept { return losses_; }

  /// Undirected links touched so far, over all lanes.
  [[nodiscard]] std::size_t link_count() const noexcept;
  /// Heap bytes of the link lanes: slab blocks, row indexes, free lists
  /// and the lane array itself (96 bytes per link slot).
  [[nodiscard]] std::size_t link_bytes() const noexcept;
  /// Heap bytes of the route-schedule table.
  [[nodiscard]] std::size_t route_schedule_bytes() const noexcept;
  /// Heap bytes of the per-node state.
  [[nodiscard]] std::size_t node_bytes() const noexcept;

 private:
  /// 96 bytes: the link's stream, its last sample time and its dynamics.
  struct LinkState {
    Rng rng;
    double last_t = -1e18;
    LinkDynamics dyn;
  };
  struct NodeState {
    Rng rng;
    double last_t = -1e18;
    NodeDynamics dyn;
  };

  /// One lane's link table, on its own cache lines: the store's bookkeeping
  /// is written on every first touch, by the lane's thread only.
  struct alignas(64) LinkLane {
    ShardLinkStore<LinkState> links;
  };

  [[nodiscard]] static std::uint64_t link_key(NodeId i, NodeId j) noexcept;
  /// The undirected link {i, j}'s state (lane and row from the lower id),
  /// its stream seeded at `t` on first touch. Throws on out-of-range ids or
  /// i == j.
  LinkState& link_slot(NodeId i, NodeId j, double t);
  /// link_slot(i, j, t), advanced to t.
  LinkState& link_at(NodeId i, NodeId j, double t);
  NodeState& node_at(NodeId i, double t);

  Topology topology_;
  LinkModelConfig config_;
  AvailabilityConfig availability_;
  std::uint64_t seed_;
  /// Per-link stochastic state for the undirected links sampled so far:
  /// lower id lo lives in lane lo % lanes, row lo / lanes; col = higher id.
  /// Slots are lazily stream-seeded at first-touch time from the link's
  /// own key.
  std::vector<LinkLane> lanes_;
  /// Steps from schedule_route_change, one entry per scheduled link; read
  /// by every lane, never written while link stages run concurrently.
  RouteSchedules schedules_;
  std::vector<NodeState> nodes_;
  std::vector<bool> node_init_;
  std::uint64_t samples_ = 0;
  std::uint64_t losses_ = 0;
};

}  // namespace nc::lat
