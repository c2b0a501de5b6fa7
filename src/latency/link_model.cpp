#include "latency/link_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace nc::lat {

double next_poisson_event_after(Rng& rng, double t, double rate_hz) {
  return rate_hz > 0.0 ? t + rng.exponential(rate_hz) : 1e18;
}

void LinkDynamics::init(Rng& rng, double t, const LinkModelConfig& config) {
  next_route_change_t =
      next_poisson_event_after(rng, t, config.route_change_rate_hz);
  next_burst_t = next_poisson_event_after(rng, t, config.link_burst_rate_hz);
}

void LinkDynamics::advance(Rng& rng, double t, const LinkModelConfig& config,
                           const RouteSchedules& schedules) {
  if (!route_changes_frozen) {
    while (next_route_change_t <= t) {
      route_factor = rng.uniform(config.route_factor_min, config.route_factor_max);
      next_route_change_t += rng.exponential(config.route_change_rate_hz);
    }
  }
  if (schedule != kNoSchedule) {
    const RouteSteps& steps = schedules[schedule];
    while (schedule_cursor < steps.size() && steps[schedule_cursor].first <= t)
      route_factor = steps[schedule_cursor++].second;
  }
  while (next_burst_t <= t) {
    burst_end_t =
        next_burst_t + rng.exponential(1.0 / config.link_burst_mean_duration_s);
    next_burst_t =
        next_poisson_event_after(rng, burst_end_t, config.link_burst_rate_hz);
  }
}

void NodeDynamics::init(Rng& rng, double t, const LinkModelConfig& config,
                        const AvailabilityConfig& availability) {
  up = !availability.enabled || rng.bernoulli(availability.initial_up_prob);
  next_toggle_t =
      availability.enabled
          ? t + rng.exponential(1.0 / (up ? availability.mean_up_s
                                          : availability.mean_down_s))
          : 1e18;
  next_burst_t = next_poisson_event_after(rng, t, config.node_burst_rate_hz);
}

void NodeDynamics::advance(Rng& rng, double t, const LinkModelConfig& config,
                           const AvailabilityConfig& availability) {
  while (next_toggle_t <= t) {
    up = !up;
    next_toggle_t += rng.exponential(
        1.0 / (up ? availability.mean_up_s : availability.mean_down_s));
  }
  while (next_burst_t <= t) {
    burst_end_t =
        next_burst_t + rng.exponential(1.0 / config.node_burst_mean_duration_s);
    next_burst_t =
        next_poisson_event_after(rng, burst_end_t, config.node_burst_rate_hz);
  }
}

double sample_noisy_rtt(Rng& rng, double base_rtt_ms, bool overload,
                        bool in_link_burst, const LinkModelConfig& config) {
  const double sigma = config.body_sigma;
  double rtt = base_rtt_ms * rng.lognormal(-0.5 * sigma * sigma, sigma);

  if (overload) {
    rtt += rng.uniform(config.node_overload_extra_min_ms,
                       config.node_overload_extra_max_ms);
  }

  const double spike_prob = in_link_burst ? config.burst_spike_prob
                            : overload    ? config.node_overload_spike_prob
                                          : config.base_spike_prob;
  if (rng.bernoulli(spike_prob)) {
    const double xm = rng.uniform(config.spike_xm_min_ms, config.spike_xm_max_ms);
    rtt += rng.pareto(xm, config.spike_alpha);
  }
  return std::min(rtt, config.rtt_cap_ms);
}

LinkModelConfig LinkModelConfig::noiseless() {
  LinkModelConfig c;
  c.body_sigma = 0.0;
  c.base_spike_prob = 0.0;
  c.burst_spike_prob = 0.0;
  c.node_overload_spike_prob = 0.0;
  c.node_overload_extra_min_ms = 0.0;
  c.node_overload_extra_max_ms = 0.0;
  c.link_burst_rate_hz = 0.0;
  c.node_burst_rate_hz = 0.0;
  c.route_change_rate_hz = 0.0;
  c.loss_prob = 0.0;
  return c;
}

LatencyNetwork::LatencyNetwork(Topology topology, LinkModelConfig link_config,
                               AvailabilityConfig availability, std::uint64_t seed,
                               int link_lanes)
    : topology_(std::move(topology)),
      config_(link_config),
      availability_(availability),
      seed_(seed),
      nodes_(static_cast<std::size_t>(topology_.size())),
      node_init_(static_cast<std::size_t>(topology_.size()), false) {
  NC_CHECK_MSG(config_.body_sigma >= 0.0, "negative jitter sigma");
  NC_CHECK_MSG(config_.loss_prob >= 0.0 && config_.loss_prob < 1.0, "bad loss prob");
  NC_CHECK_MSG(config_.spike_alpha > 0.0, "bad spike alpha");
  NC_CHECK_MSG(link_lanes >= 1, "need at least one link lane");
  const auto n = static_cast<std::size_t>(topology_.size());
  const auto lanes = static_cast<std::size_t>(link_lanes);
  lanes_.resize(lanes);
  for (LinkLane& lane : lanes_)
    lane.links = ShardLinkStore<LinkState>((n + lanes - 1) / lanes, n);
}

std::uint64_t LatencyNetwork::link_key(NodeId i, NodeId j) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(i, j));
  const auto hi = static_cast<std::uint64_t>(std::max(i, j));
  return (lo << 32) | hi;
}

LatencyNetwork::LinkState& LatencyNetwork::link_slot(NodeId i, NodeId j,
                                                     double t) {
  static_assert(sizeof(LinkState) == 96, "stream, last time, dynamics");
  NC_CHECK_MSG(i >= 0 && j >= 0 && i != j && i < topology_.size() &&
                   j < topology_.size(),
               "bad link endpoints");
  const auto lo = static_cast<std::size_t>(std::min(i, j));
  const std::size_t lanes = lanes_.size();
  LinkState& s = lanes_[lo % lanes].links.at(
      lo / lanes, static_cast<std::size_t>(std::max(i, j)));
  if (!s.dyn.initialized) {
    // Lazy stream seeding at first-touch time; the derivation key is the
    // same (lo, hi) pair as always, so every seed maps to the same trace.
    s.dyn.initialized = true;
    s.rng = Rng::derived(seed_, rngstream::kLink, link_key(i, j));
    s.dyn.init(s.rng, t, config_);
    s.last_t = t;
  }
  return s;
}

LatencyNetwork::LinkState& LatencyNetwork::link_at(NodeId i, NodeId j, double t) {
  LinkState& s = link_slot(i, j, t);
  NC_CHECK_MSG(t >= s.last_t - 1e-9, "link time went backwards");
  s.last_t = t;
  s.dyn.advance(s.rng, t, config_, schedules_);
  return s;
}

LatencyNetwork::NodeState& LatencyNetwork::node_at(NodeId i, double t) {
  auto& s = nodes_.at(static_cast<std::size_t>(i));
  if (!node_init_[static_cast<std::size_t>(i)]) {
    node_init_[static_cast<std::size_t>(i)] = true;
    s.rng = Rng::derived(seed_, rngstream::kNode, static_cast<std::uint64_t>(i));
    s.dyn.init(s.rng, t, config_, availability_);
    s.last_t = t;
  }
  NC_CHECK_MSG(t >= s.last_t - 1e-9, "node time went backwards");
  s.last_t = t;
  s.dyn.advance(s.rng, t, config_, availability_);
  return s;
}

std::optional<double> LatencyNetwork::sample_rtt(NodeId i, NodeId j, double t) {
  NC_CHECK_MSG(i != j, "no self-ping");
  ++samples_;
  const PingNodes nodes = node_stage(i, j, t);
  if (!nodes.target_up) {  // target down: the ping times out
    ++losses_;
    return std::nullopt;
  }
  const LinkSample sample = link_stage(i, j, t, nodes.overload);
  if (!sample.rtt_ms.has_value()) ++losses_;
  return sample.rtt_ms;
}

PingNodes LatencyNetwork::node_stage(NodeId i, NodeId j, double t) {
  const NodeState& ni = node_at(i, t);
  const NodeState& nj = node_at(j, t);
  return {nj.dyn.up, t < ni.dyn.burst_end_t || t < nj.dyn.burst_end_t};
}

LinkSample LatencyNetwork::link_stage(NodeId i, NodeId j, double t, bool overload) {
  LinkState& link = link_at(i, j, t);
  const double base = topology_.base_rtt_ms(i, j) * link.dyn.route_factor;
  if (link.rng.bernoulli(config_.loss_prob)) return {std::nullopt, base};
  return {sample_noisy_rtt(link.rng, base, overload, t < link.dyn.burst_end_t,
                           config_),
          base};
}

double LatencyNetwork::ground_truth_rtt(NodeId i, NodeId j, double t) {
  return topology_.base_rtt_ms(i, j) * link_at(i, j, t).dyn.route_factor;
}

bool LatencyNetwork::node_up(NodeId i, double t) { return node_at(i, t).dyn.up; }

void LatencyNetwork::force_route_change(NodeId i, NodeId j, double factor, double t) {
  NC_CHECK_MSG(factor > 0.0, "route factor must be positive");
  LinkState& s = link_at(i, j, t);
  s.dyn.route_factor = factor;
  s.dyn.route_changes_frozen = true;
}

void LatencyNetwork::schedule_route_change(NodeId i, NodeId j, double factor,
                                           double at_t) {
  NC_CHECK_MSG(factor > 0.0, "route factor must be positive");
  // An untouched link is seeded at t = 0, as link_at would at its first
  // sample; that sample advances from here.
  LinkState& s = link_slot(i, j, 0.0);
  NC_CHECK_MSG(s.last_t <= at_t, "link already advanced past at_t");
  s.dyn.route_changes_frozen = true;
  if (s.dyn.schedule == LinkDynamics::kNoSchedule) {
    NC_CHECK_MSG(schedules_.size() < LinkDynamics::kNoSchedule,
                 "too many scheduled links");
    s.dyn.schedule = static_cast<std::uint32_t>(schedules_.size());
    schedules_.emplace_back();
  }
  // Applied steps are gone; the new one joins the pending ones in
  // (at_t, factor) order.
  RouteSteps& steps = schedules_[s.dyn.schedule];
  const std::pair<double, double> step{at_t, factor};
  steps.insert(std::upper_bound(steps.begin() + s.dyn.schedule_cursor,
                                steps.end(), step),
               step);
}

std::size_t LatencyNetwork::link_count() const noexcept {
  std::size_t links = 0;
  for (const LinkLane& lane : lanes_) links += lane.links.size();
  return links;
}

std::size_t LatencyNetwork::link_bytes() const noexcept {
  std::size_t bytes = lanes_.capacity() * sizeof(LinkLane);
  for (const LinkLane& lane : lanes_) bytes += lane.links.memory_bytes();
  return bytes;
}

std::size_t LatencyNetwork::route_schedule_bytes() const noexcept {
  std::size_t bytes = schedules_.capacity() * sizeof(RouteSteps);
  for (const RouteSteps& steps : schedules_)
    bytes += steps.capacity() * sizeof(RouteSteps::value_type);
  return bytes;
}

std::size_t LatencyNetwork::node_bytes() const noexcept {
  return nodes_.capacity() * sizeof(NodeState) +
         (node_init_.capacity() + 7) / 8;
}

}  // namespace nc::lat
