#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "stats/percentile.hpp"

namespace nc::sim {

MetricsCollector::MetricsCollector(const MetricsConfig& config) : config_(config) {
  NC_CHECK_MSG(config.num_nodes >= 2, "need at least two nodes");
  NC_CHECK_MSG(config.duration_s > 0.0, "duration must be positive");
  NC_CHECK_MSG(config.measure_start_s >= 0.0 &&
                   config.measure_start_s < config.duration_s,
               "bad measurement window");
  NC_CHECK_MSG(eval_window_seconds() >= 1,
               "measurement window must span at least one full second "
               "(per-second stability metrics cover [ceil(measure_start_s), "
               "ceil(duration_s)))");
  const auto n = static_cast<std::size_t>(config.num_nodes);
  node_errors_.resize(n);
  node_current_second_.resize(n);
  node_second_movements_.resize(n);
  node_last_update_sec_.assign(n, -1);
  dst_median_.assign(n, stats::P2Quantile(0.5));
  dst_count_.assign(n, 0);
  if (config.collect_oracle) {
    node_oracle_median_.assign(n, stats::P2Quantile(0.5));
    node_oracle_count_.assign(n, 0);
  }
  const auto total_secs = static_cast<std::size_t>(std::ceil(config.duration_s)) + 1;
  app_move_per_sec_.assign(total_secs, 0);
  sys_move_per_sec_.assign(total_secs, 0);
  updating_nodes_per_sec_.assign(eval_window_seconds(), 0);
  if (config.collect_timeseries) {
    ts_errors_.emplace(config.timeseries_bucket_s);
  }
  drift_.resize(n);
  drift_tracked_.assign(n, 0);
  for (NodeId id : config.tracked_nodes) {
    NC_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < n,
                 "tracked node out of range");
    drift_tracked_[static_cast<std::size_t>(id)] = 1;
  }
}

std::size_t MetricsCollector::memory_bytes() const noexcept {
  const auto bytes_of = [](const auto& v) noexcept {
    return v.capacity() * sizeof(v[0]);
  };
  std::size_t bytes = sizeof(*this) + bytes_of(config_.tracked_nodes) +
                      bytes_of(node_errors_) + bytes_of(node_oracle_median_) +
                      bytes_of(node_oracle_count_) + bytes_of(dst_median_) +
                      bytes_of(dst_count_) + bytes_of(app_move_per_sec_) +
                      bytes_of(sys_move_per_sec_) +
                      bytes_of(node_current_second_) +
                      bytes_of(node_second_movements_) +
                      bytes_of(updating_nodes_per_sec_) +
                      bytes_of(node_last_update_sec_) + bytes_of(drift_) +
                      bytes_of(drift_tracked_);
  for (const auto& v : node_errors_) bytes += bytes_of(v);
  for (const auto& v : node_second_movements_) bytes += bytes_of(v);
  for (const auto& v : drift_) bytes += bytes_of(v);
  if (ts_errors_) bytes += ts_errors_->memory_bytes();
  return bytes;
}

std::size_t MetricsCollector::second_index(double t) const noexcept {
  const auto idx = static_cast<std::size_t>(std::max(0.0, std::floor(t)));
  return std::min(idx, app_move_per_sec_.size() - 1);
}

std::size_t MetricsCollector::eval_start_sec() const noexcept {
  return static_cast<std::size_t>(std::ceil(config_.measure_start_s));
}

std::size_t MetricsCollector::eval_end_sec() const noexcept {
  return std::min(app_move_per_sec_.size(),
                  static_cast<std::size_t>(std::ceil(config_.duration_s)));
}

std::size_t MetricsCollector::eval_window_seconds() const noexcept {
  const std::size_t start = eval_start_sec();
  const std::size_t end =
      static_cast<std::size_t>(std::ceil(config_.duration_s));
  return end > start ? end - start : 0;
}

double MetricsCollector::on_observation(double t, NodeId src, NodeId dst,
                                        double raw_rtt_ms,
                                        double predicted_rtt_ms,
                                        const ObservationOutcome& outcome,
                                        std::optional<double> oracle_rtt_ms) {
  NC_CHECK_MSG(raw_rtt_ms > 0.0, "raw rtt must be positive");
  ++observations_;
  const auto s = static_cast<std::size_t>(src);
  const auto d = static_cast<std::size_t>(dst);
  NC_CHECK_MSG(d < dst_median_.size(), "dst out of range");
  const bool eval = in_eval_window(t);

  // Application-level relative error for this observation.
  const double predicted = predicted_rtt_ms;
  const double err = std::fabs(predicted - raw_rtt_ms) / raw_rtt_ms;
  if (eval) node_errors_[s].push_back(err);
  if (ts_errors_) ts_errors_->add(t, err);

  if (config_.collect_oracle && oracle_rtt_ms.has_value() && eval) {
    const double oerr = std::fabs(predicted - *oracle_rtt_ms) / *oracle_rtt_ms;
    node_oracle_median_[s].add(oerr);
    ++node_oracle_count_[s];
  }

  // Movement accounting (whole run, per second, fixed-point).
  const std::size_t sec = second_index(t);
  app_move_per_sec_[sec] += to_ticks(outcome.app_displacement_ms);
  sys_move_per_sec_[sec] += to_ticks(outcome.system_displacement_ms);

  // Per-second stability metrics cover only full eval seconds: a fractional
  // measure_start_s must not leak the partial warm-up second into them.
  if (eval && sec >= eval_start_sec()) {
    // Per-node movement per second: flush when the node's second rolls over.
    NodeSecond& cur = node_current_second_[s];
    const auto this_sec = static_cast<std::int64_t>(sec);
    if (cur.second != this_sec) {
      if (cur.second >= 0) flush_node_second(s, cur.movement);
      cur.second = this_sec;
      cur.movement = 0.0;
    }
    cur.movement += outcome.app_displacement_ms;

    if (outcome.app_updated) {
      ++app_updates_;
      if (node_last_update_sec_[s] != this_sec) {
        node_last_update_sec_[s] = this_sec;
        const std::size_t rel = sec - eval_start_sec();
        if (rel < updating_nodes_per_sec_.size()) ++updating_nodes_per_sec_[rel];
      }
    }
  }
  return err;
}

void MetricsCollector::record_dst_error(double t, NodeId dst, double err) {
  if (!in_eval_window(t)) return;
  const auto d = static_cast<std::size_t>(dst);
  NC_CHECK_MSG(d < dst_median_.size(), "dst out of range");
  dst_median_[d].add(err);
  ++dst_count_[d];
}

void MetricsCollector::flush_node_second(std::size_t node, double movement) {
  std::vector<double>& secs = node_second_movements_[node];
  // Capacity hint at first flush: a node contributes at most one entry per
  // eval-window second. Bounding the hint keeps the up-front commitment
  // modest for very long runs (doubling takes over beyond it).
  if (secs.capacity() == 0)
    secs.reserve(std::min<std::size_t>(eval_window_seconds(), 4096));
  secs.push_back(movement);
}

void MetricsCollector::finalize() {
  for (std::size_t s = 0; s < node_current_second_.size(); ++s) {
    NodeSecond& cur = node_current_second_[s];
    if (cur.second >= 0) {
      flush_node_second(s, cur.movement);
      cur.second = -1;
      cur.movement = 0.0;
    }
  }
}

MetricsNodeState MetricsCollector::extract_node_state(NodeId node) {
  const auto i = static_cast<std::size_t>(node);
  NC_CHECK_MSG(node >= 0 && i < node_errors_.size(), "node out of range");
  NC_CHECK_MSG(!drift_tracked_[i],
               "tracked nodes are pinned and must not migrate");

  MetricsNodeState state;
  state.errors = std::move(node_errors_[i]);
  node_errors_[i].clear();
  state.second_movements = std::move(node_second_movements_[i]);
  node_second_movements_[i].clear();
  state.current_second = node_current_second_[i].second;
  state.current_movement = node_current_second_[i].movement;
  node_current_second_[i] = NodeSecond{};
  state.last_update_sec = node_last_update_sec_[i];
  node_last_update_sec_[i] = -1;
  state.dst_median = dst_median_[i];
  state.dst_count = dst_count_[i];
  dst_median_[i] = stats::P2Quantile(0.5);
  dst_count_[i] = 0;
  if (config_.collect_oracle) {
    state.oracle_median = node_oracle_median_[i];
    state.oracle_count = node_oracle_count_[i];
    node_oracle_median_[i] = stats::P2Quantile(0.5);
    node_oracle_count_[i] = 0;
  }
  return state;
}

void MetricsCollector::install_node_state(NodeId node, MetricsNodeState state) {
  const auto i = static_cast<std::size_t>(node);
  NC_CHECK_MSG(node >= 0 && i < node_errors_.size(), "node out of range");
  NC_CHECK_MSG(node_errors_[i].empty() && node_second_movements_[i].empty() &&
                   node_current_second_[i].second < 0 && dst_count_[i] == 0 &&
                   node_last_update_sec_[i] < 0,
               "installing migrated node state over existing data");
  node_errors_[i] = std::move(state.errors);
  node_second_movements_[i] = std::move(state.second_movements);
  node_current_second_[i] =
      NodeSecond{state.current_second, state.current_movement};
  node_last_update_sec_[i] = state.last_update_sec;
  dst_median_[i] = state.dst_median;
  dst_count_[i] = state.dst_count;
  if (config_.collect_oracle) {
    node_oracle_median_[i] = state.oracle_median;
    node_oracle_count_[i] = state.oracle_count;
  }
}

void MetricsCollector::merge(MetricsCollector& other) {
  const MetricsConfig& oc = other.config_;
  NC_CHECK_MSG(config_.num_nodes == oc.num_nodes &&
                   config_.duration_s == oc.duration_s &&
                   config_.measure_start_s == oc.measure_start_s &&
                   config_.collect_timeseries == oc.collect_timeseries &&
                   config_.timeseries_bucket_s == oc.timeseries_bucket_s &&
                   config_.collect_oracle == oc.collect_oracle &&
                   config_.min_node_samples == oc.min_node_samples,
               "cannot merge collectors with different configurations");
  finalize();
  other.finalize();

  const std::size_t n = node_errors_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!other.node_errors_[i].empty()) {
      NC_CHECK_MSG(node_errors_[i].empty(), "node error data on both sides");
      node_errors_[i] = std::move(other.node_errors_[i]);
    }
    if (!other.node_second_movements_[i].empty()) {
      NC_CHECK_MSG(node_second_movements_[i].empty(),
                   "node movement data on both sides");
      node_second_movements_[i] = std::move(other.node_second_movements_[i]);
    }
    if (other.dst_count_[i] > 0) {
      NC_CHECK_MSG(dst_count_[i] == 0, "dst error data on both sides");
      dst_median_[i] = other.dst_median_[i];
      dst_count_[i] = other.dst_count_[i];
    }
    if (config_.collect_oracle && other.node_oracle_count_[i] > 0) {
      NC_CHECK_MSG(node_oracle_count_[i] == 0, "oracle data on both sides");
      node_oracle_median_[i] = other.node_oracle_median_[i];
      node_oracle_count_[i] = other.node_oracle_count_[i];
    }
    node_last_update_sec_[i] =
        std::max(node_last_update_sec_[i], other.node_last_update_sec_[i]);
  }

  for (std::size_t sec = 0; sec < app_move_per_sec_.size(); ++sec) {
    app_move_per_sec_[sec] += other.app_move_per_sec_[sec];
    sys_move_per_sec_[sec] += other.sys_move_per_sec_[sec];
  }
  for (std::size_t sec = 0; sec < updating_nodes_per_sec_.size(); ++sec)
    updating_nodes_per_sec_[sec] += other.updating_nodes_per_sec_[sec];

  if (ts_errors_) ts_errors_->merge(*other.ts_errors_);

  for (std::size_t i = 0; i < drift_.size(); ++i) {
    if (!other.drift_tracked_[i]) continue;
    if (!other.drift_[i].empty()) {
      NC_CHECK_MSG(drift_[i].empty(), "drift data on both sides");
      drift_[i] = std::move(other.drift_[i]);
    }
    if (!drift_tracked_[i]) {
      drift_tracked_[i] = 1;
      config_.tracked_nodes.push_back(static_cast<NodeId>(i));
    }
  }

  observations_ += other.observations_;
  app_updates_ += other.app_updates_;
  estimator_stats_.add(other.estimator_stats_);
}

void MetricsCollector::track_coordinate(double t, NodeId node, const Coordinate& coord) {
  const auto i = static_cast<std::size_t>(node);
  NC_CHECK_MSG(node >= 0 && i < drift_.size(), "tracked node out of range");
  drift_tracked_[i] = 1;
  drift_[i].push_back(DriftPoint{t, coord.position()});
}

stats::Ecdf MetricsCollector::per_node_median_error() const {
  stats::Ecdf out;
  for (const auto& errs : node_errors_) {
    if (static_cast<int>(errs.size()) >= config_.min_node_samples)
      out.add(stats::percentile(errs, 50.0));
  }
  return out;
}

stats::Ecdf MetricsCollector::per_node_p95_error() const {
  stats::Ecdf out;
  for (const auto& errs : node_errors_) {
    if (static_cast<int>(errs.size()) >= config_.min_node_samples)
      out.add(stats::percentile(errs, 95.0));
  }
  return out;
}

double MetricsCollector::median_relative_error() const {
  const stats::Ecdf cdf = per_node_median_error();
  NC_CHECK_MSG(!cdf.empty(), "no nodes with enough samples");
  return cdf.median();
}

stats::Ecdf MetricsCollector::per_dst_median_error() const {
  stats::Ecdf out;
  for (std::size_t d = 0; d < dst_median_.size(); ++d) {
    if (static_cast<int>(dst_count_[d]) >= config_.min_node_samples)
      out.add(dst_median_[d].value());
  }
  return out;
}

double MetricsCollector::median_error_to(NodeId dst) const {
  const auto d = static_cast<std::size_t>(dst);
  NC_CHECK_MSG(d < dst_median_.size(), "dst out of range");
  NC_CHECK_MSG(static_cast<int>(dst_count_[d]) >= config_.min_node_samples,
               "too few samples aimed at dst");
  return dst_median_[d].value();
}

std::uint64_t MetricsCollector::dst_observation_count(NodeId dst) const {
  const auto d = static_cast<std::size_t>(dst);
  NC_CHECK_MSG(d < dst_count_.size(), "dst out of range");
  return dst_count_[d];
}

stats::Ecdf MetricsCollector::oracle_per_node_median_error() const {
  NC_CHECK_MSG(config_.collect_oracle, "oracle metrics not enabled");
  stats::Ecdf out;
  for (std::size_t n = 0; n < node_oracle_median_.size(); ++n) {
    if (static_cast<int>(node_oracle_count_[n]) >= config_.min_node_samples)
      out.add(node_oracle_median_[n].value());
  }
  return out;
}

double MetricsCollector::oracle_median_error_of(NodeId node) const {
  NC_CHECK_MSG(config_.collect_oracle, "oracle metrics not enabled");
  const auto n = static_cast<std::size_t>(node);
  NC_CHECK_MSG(n < node_oracle_median_.size(), "node out of range");
  NC_CHECK_MSG(static_cast<int>(node_oracle_count_[n]) >= config_.min_node_samples,
               "too few oracle samples for node");
  return node_oracle_median_[n].value();
}

stats::Ecdf MetricsCollector::instability() const {
  stats::Ecdf out;
  // Full eval seconds only: the same ceil(measure_start_s) boundary that
  // gates the per-node movement accounting, so a fractional warm-up second
  // never contributes eval movement.
  for (std::size_t sec = eval_start_sec(); sec < eval_end_sec(); ++sec)
    out.add(from_ticks(app_move_per_sec_[sec]));
  return out;
}

stats::Ecdf MetricsCollector::system_instability() const {
  stats::Ecdf out;
  for (std::size_t sec = eval_start_sec(); sec < eval_end_sec(); ++sec)
    out.add(from_ticks(sys_move_per_sec_[sec]));
  return out;
}

double MetricsCollector::median_instability_ms_per_s() const {
  const stats::Ecdf cdf = instability();
  NC_CHECK_MSG(!cdf.empty(), "empty instability window");
  return cdf.median();
}

double MetricsCollector::mean_instability_ms_per_s() const {
  const std::size_t start = eval_start_sec();
  const std::size_t end = eval_end_sec();
  NC_CHECK_MSG(end > start, "empty instability window");
  std::int64_t total = 0;
  for (std::size_t sec = start; sec < end; ++sec) total += app_move_per_sec_[sec];
  return from_ticks(total) / static_cast<double>(end - start);
}

stats::Ecdf MetricsCollector::per_node_p95_movement() const {
  stats::Ecdf out;
  const double window = static_cast<double>(eval_window_seconds());
  for (std::size_t n = 0; n < node_second_movements_.size(); ++n) {
    std::vector<double> secs = node_second_movements_[n];
    if (secs.empty()) continue;
    // Seconds without any observation contributed no movement: pad zeros so
    // percentiles are over the full window.
    const auto missing = static_cast<std::size_t>(
        std::max(0.0, window - static_cast<double>(secs.size())));
    secs.insert(secs.end(), missing, 0.0);
    out.add(stats::percentile(std::move(secs), 95.0));
  }
  return out;
}

double MetricsCollector::mean_pct_nodes_updating_per_s() const {
  if (updating_nodes_per_sec_.empty()) return 0.0;
  double sum = 0.0;
  for (std::uint32_t c : updating_nodes_per_sec_) sum += c;
  return 100.0 * sum /
         (static_cast<double>(updating_nodes_per_sec_.size()) *
          static_cast<double>(config_.num_nodes));
}

std::vector<stats::SeriesPoint> MetricsCollector::error_timeseries_median() const {
  NC_CHECK_MSG(ts_errors_.has_value(), "time series not enabled");
  return ts_errors_->medians();
}

std::vector<stats::SeriesPoint> MetricsCollector::error_timeseries_p95() const {
  NC_CHECK_MSG(ts_errors_.has_value(), "time series not enabled");
  return ts_errors_->quantiles(0.95);
}

std::vector<stats::SeriesPoint> MetricsCollector::instability_timeseries() const {
  stats::BucketedSum buckets(config_.timeseries_bucket_s);
  for (std::size_t sec = 0; sec < app_move_per_sec_.size(); ++sec) {
    if (static_cast<double>(sec) >= config_.duration_s) break;
    buckets.add(static_cast<double>(sec), from_ticks(app_move_per_sec_[sec]));
  }
  return buckets.means();  // mean ms/s within each bucket
}

const std::vector<DriftPoint>& MetricsCollector::drift(NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  NC_CHECK_MSG(node >= 0 && i < drift_.size() && drift_tracked_[i],
               "node was not tracked");
  return drift_[i];
}

}  // namespace nc::sim
