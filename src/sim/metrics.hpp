// Metrics collection for the engine's trace-replay and online modes.
//
// Implements the paper's two figures of merit (Sec. II-A) plus the
// application-update rate of Sec. V-D:
//
//  * Accuracy — per-node relative error: for every observation,
//    eps = | ||c_i - c_j|| - l_ij | / l_ij measured with the APPLICATION
//    coordinates of both endpoints against the raw observed latency. Per-node
//    distributions feed the median / 95th-percentile CDFs.
//  * Stability — coordinate movement per second (ms/s). Aggregate instability
//    sums all nodes' application-coordinate displacement per second of
//    simulated time; its distribution over seconds is the paper's
//    "Instability" CDF, and its median the sweep-figure scalar.
//  * Update rate — percentage of nodes whose application coordinate changed
//    in each second (Fig. 9 bottom).
//
// Because this reproduction owns the ground truth (a real deployment does
// not), an optional oracle metric also compares coordinate distances against
// the quiescent route-adjusted RTT — useful for validating the substitution.
//
// Accuracy/stability are collected inside [measure_start_s, duration_s) to
// exclude start-up transients (the paper reports the second half of each
// run); time series span the whole run. Per-observation accuracy gates on
// t >= measure_start_s; per-second stability metrics cover only FULL eval
// seconds, [ceil(measure_start_s), ceil(duration_s)), so a fractional
// measure_start never leaks warm-up movement into the instability window.
//
// Collectors are mergeable: a sharded simulator gives each worker shard its
// own collector (same config, disjoint node ownership) and combines them
// with merge(). Cross-node per-second movement sums are accumulated in
// fixed-point ticks (2^-20 ms) so that addition is associative and the
// merged totals are bit-identical for any shard count; everything else is
// keyed by node and merged disjointly. Call finalize() at end of run (the
// engine does, in both modes) to flush each node's in-flight second into
// the per-node movement distributions. Per-destination medians are fed
// only through record_dst_error(), by the collector that owns the
// destination.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/coordinate.hpp"
#include "core/nc_client.hpp"
#include "core/node_id.hpp"
#include "estimate/latency_estimator.hpp"
#include "stats/ecdf.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/timeseries.hpp"

namespace nc::sim {

struct MetricsConfig {
  int num_nodes = 0;
  double duration_s = 0.0;
  double measure_start_s = 0.0;

  bool collect_timeseries = false;
  double timeseries_bucket_s = 600.0;

  bool collect_oracle = false;

  /// Nodes whose coordinate trajectory is recorded (Fig. 7 drift plots).
  std::vector<NodeId> tracked_nodes;

  /// Per-node error distributions need at least this many samples to count.
  int min_node_samples = 8;
};

struct DriftPoint {
  double t = 0.0;
  Vec position;
};

/// One node's migratable metrics state: everything the collector keys by
/// node, packed when ownership migration hands the node to another shard's
/// collector (sim/sharded_sim.cpp). The in-flight second is carried RAW
/// (not flushed), so the new owner keeps accumulating the same second and
/// the flushed per-second series is bit-identical to a single-shard run.
struct MetricsNodeState {
  std::vector<double> errors;
  std::vector<double> second_movements;
  std::int64_t current_second = -1;
  double current_movement = 0.0;
  std::int64_t last_update_sec = -1;
  stats::P2Quantile dst_median = stats::P2Quantile(0.5);
  std::uint64_t dst_count = 0;
  stats::P2Quantile oracle_median = stats::P2Quantile(0.5);
  std::uint64_t oracle_count = 0;
};

class MetricsCollector {
 public:
  explicit MetricsCollector(const MetricsConfig& config);

  /// Records one observation: `src` observed `dst` with raw RTT `raw_rtt_ms`
  /// and the active estimation backend predicted `predicted_rtt_ms` for the
  /// pair; `outcome` is what the observation did to `src`. Returns the
  /// application-level relative error of the observation. Per-destination
  /// accounting is the caller's: feed the returned error to the destination
  /// owner's record_dst_error().
  double on_observation(double t, NodeId src, NodeId dst, double raw_rtt_ms,
                        double predicted_rtt_ms,
                        const ObservationOutcome& outcome,
                        std::optional<double> oracle_rtt_ms = std::nullopt);

  /// Coordinate-backend convenience: predicts via the two endpoints'
  /// application coordinates (`src_app.distance_to(dst_app)`) and delegates.
  double on_observation(double t, NodeId src, NodeId dst, double raw_rtt_ms,
                        const Coordinate& src_app, const Coordinate& dst_app,
                        const ObservationOutcome& outcome,
                        std::optional<double> oracle_rtt_ms = std::nullopt) {
    return on_observation(t, src, dst, raw_rtt_ms,
                          src_app.distance_to(dst_app), outcome,
                          oracle_rtt_ms);
  }

  /// Appends a drift snapshot for a tracked node (driver decides cadence).
  void track_coordinate(double t, NodeId node, const Coordinate& coord);

  /// Per-destination error accounting for one observation aimed at `dst`
  /// (same eval-window gating as on_observation) — the only path into the
  /// per-destination medians. The sharded engine routes each destination's
  /// error stream to the shard that owns the destination, keeping the
  /// streaming median's input order canonical for any shard count.
  void record_dst_error(double t, NodeId dst, double err);

  /// Flushes every node's in-flight second into the per-node movement
  /// distributions. Call once at end of run (further observations would
  /// start fresh seconds); idempotent.
  void finalize();

  /// Ownership migration: moves `node`'s per-node state out (see
  /// MetricsNodeState); afterwards this collector holds no data for it.
  /// Tracked (drift) nodes are pinned by the engine and must not be
  /// extracted. Cross-node sums (per-second movement, update counts, time
  /// series) stay — they are globally associative and merge() adds them.
  [[nodiscard]] MetricsNodeState extract_node_state(NodeId node);

  /// Installs state packed by another collector's extract_node_state. The
  /// node must currently have no data here.
  void install_node_state(NodeId node, MetricsNodeState state);

  /// Absorbs a collector covering a disjoint set of nodes (same num_nodes,
  /// window and collection flags). Both sides must be finalized. Cross-node
  /// per-second sums add in fixed point (associative, so any merge order
  /// yields bit-identical totals); per-node state moves over — a node with
  /// data on both sides is a contract violation and throws. tracked_nodes
  /// are unioned.
  void merge(MetricsCollector& other);

  // ---- accuracy ----
  [[nodiscard]] stats::Ecdf per_node_median_error() const;
  [[nodiscard]] stats::Ecdf per_node_p95_error() const;
  /// Median over nodes of each node's median relative error.
  [[nodiscard]] double median_relative_error() const;
  /// CDF over DESTINATIONS of the median error of all observations aimed at
  /// each destination. A node can predict well as an observer yet be badly
  /// placed as a target (stale advertised coordinate, overloaded host); this
  /// view exposes those nodes, which per_node_* (keyed by observer) averages
  /// away.
  [[nodiscard]] stats::Ecdf per_dst_median_error() const;
  /// Median error of observations aimed at one destination (needs enough
  /// samples).
  [[nodiscard]] double median_error_to(NodeId dst) const;
  /// Eval-window observations aimed at `dst`.
  [[nodiscard]] std::uint64_t dst_observation_count(NodeId dst) const;
  [[nodiscard]] stats::Ecdf oracle_per_node_median_error() const;
  /// Ground-truth median error of one node (e.g. the node whose links an
  /// adaptation experiment perturbed). Requires enough samples.
  [[nodiscard]] double oracle_median_error_of(NodeId node) const;

  // ---- stability ----
  /// CDF over eval-window seconds of aggregate app-coordinate movement (ms/s).
  [[nodiscard]] stats::Ecdf instability() const;
  /// Same, for system coordinates.
  [[nodiscard]] stats::Ecdf system_instability() const;
  [[nodiscard]] double median_instability_ms_per_s() const;
  /// The paper's stability definition s = sum(dx)/t over the eval window:
  /// total application-coordinate movement divided by elapsed seconds.
  [[nodiscard]] double mean_instability_ms_per_s() const;
  /// CDF over nodes of the 95th percentile of per-second movement.
  [[nodiscard]] stats::Ecdf per_node_p95_movement() const;

  // ---- application updates ----
  /// Mean over eval seconds of (distinct nodes updating / num_nodes * 100).
  [[nodiscard]] double mean_pct_nodes_updating_per_s() const;
  [[nodiscard]] std::uint64_t total_app_updates() const noexcept { return app_updates_; }

  // ---- time series (whole run) ----
  [[nodiscard]] std::vector<stats::SeriesPoint> error_timeseries_median() const;
  [[nodiscard]] std::vector<stats::SeriesPoint> error_timeseries_p95() const;
  /// Mean per-second aggregate movement within each bucket (ms/s).
  [[nodiscard]] std::vector<stats::SeriesPoint> instability_timeseries() const;

  // ---- drift ----
  [[nodiscard]] const std::vector<DriftPoint>& drift(NodeId node) const;

  // ---- estimator introspection ----
  /// Attaches the active backend's coverage/staleness/cost counters (the
  /// sharded engine calls this per shard before finalize; merge() adds the
  /// disjoint per-shard stats field-wise).
  void set_estimator_stats(const est::EstimatorStats& s) noexcept {
    estimator_stats_ = s;
  }
  [[nodiscard]] const est::EstimatorStats& estimator_stats() const noexcept {
    return estimator_stats_;
  }

  [[nodiscard]] std::uint64_t observation_count() const noexcept { return observations_; }
  [[nodiscard]] const MetricsConfig& config() const noexcept { return config_; }

  /// Heap bytes held (object, per-node and per-second stores, drift series,
  /// bucketed error series), for the engine's MemoryBudget.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Capacity of one node's per-second movement store (tests pin the
  /// no-reallocation-in-steady-state contract through this).
  [[nodiscard]] std::size_t node_movement_capacity(NodeId node) const {
    return node_second_movements_.at(static_cast<std::size_t>(node)).capacity();
  }

 private:
  /// Movement sums that cross node boundaries are accumulated in integer
  /// ticks of 2^-20 ms: integer addition is associative and commutative, so
  /// per-shard partial sums merge to bit-identical totals in any order. The
  /// quantization (~1e-6 ms per observation) is part of the metric's
  /// definition, applied identically in serial and sharded runs.
  static constexpr double kTicksPerMs = 1048576.0;  // 2^20
  [[nodiscard]] static std::int64_t to_ticks(double ms) noexcept {
    return static_cast<std::int64_t>(std::llround(ms * kTicksPerMs));
  }
  [[nodiscard]] static double from_ticks(std::int64_t ticks) noexcept {
    return static_cast<double>(ticks) / kTicksPerMs;
  }

  [[nodiscard]] bool in_eval_window(double t) const noexcept {
    return t >= config_.measure_start_s && t < config_.duration_s;
  }
  [[nodiscard]] std::size_t second_index(double t) const noexcept;
  /// First FULL second of the eval window: ceil(measure_start_s).
  [[nodiscard]] std::size_t eval_start_sec() const noexcept;
  /// One past the last eval second: ceil(duration_s), clamped to the arrays.
  [[nodiscard]] std::size_t eval_end_sec() const noexcept;
  [[nodiscard]] std::size_t eval_window_seconds() const noexcept;

  MetricsConfig config_;

  // Accuracy (eval window).
  std::vector<std::vector<double>> node_errors_;
  std::vector<stats::P2Quantile> node_oracle_median_;
  std::vector<std::uint64_t> node_oracle_count_;

  // Per-destination accuracy (eval window): streaming medians keyed by the
  // observed node, aggregated over all observers.
  std::vector<stats::P2Quantile> dst_median_;
  std::vector<std::uint64_t> dst_count_;

  // Whole-run per-second aggregate movement (app and system coordinates),
  // in fixed-point ticks (see kTicksPerMs).
  std::vector<std::int64_t> app_move_per_sec_;
  std::vector<std::int64_t> sys_move_per_sec_;

  // Per-node movement per second (eval window): flushed sums. Each node's
  // store is capacity-hinted at its first flush (flush_node_second) so the
  // steady-state flush path does not reallocate per push.
  struct NodeSecond {
    std::int64_t second = -1;
    double movement = 0.0;
  };
  void flush_node_second(std::size_t node, double movement);
  std::vector<NodeSecond> node_current_second_;
  std::vector<std::vector<double>> node_second_movements_;

  // Distinct nodes with app updates per eval second.
  std::vector<std::uint32_t> updating_nodes_per_sec_;
  std::vector<std::int64_t> node_last_update_sec_;

  // Time series.
  std::optional<stats::BucketedValues> ts_errors_;

  // Drift: dense node-indexed series plus a tracked flag replicating the
  // sparse map's "was this node ever tracked" distinction.
  std::vector<std::vector<DriftPoint>> drift_;
  std::vector<std::uint8_t> drift_tracked_;

  std::uint64_t observations_ = 0;
  std::uint64_t app_updates_ = 0;
  est::EstimatorStats estimator_stats_;
};

}  // namespace nc::sim
