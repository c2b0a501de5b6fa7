// IDMSEstimator: a measured delay-matrix service behind the
// LatencyEstimator seam.
//
// The IDMS line of work (see PAPERS.md) argues an NC system is unnecessary:
// keep the observed RTTs themselves in a matrix and answer queries by
// lookup. This backend maintains a DIRECTED delay matrix over the node id
// space, filled from the same observed-RTT stream that drives the
// coordinate backend. Each cell smooths repeated samples with an EWMA
// (alpha-weighted toward the newest sample) rather than storing the last
// raw value, so one congestion spike does not own the cell.
//
// Sharding / determinism: a cell (src, dst) is only ever written while
// processing an observation whose observer is `src`, and every instance is
// owned by the shard that owns `src` — so cell updates happen in the
// shard's canonical processing order and the matrix is bit-identical at any
// shard count. The matrix is a ShardLinkStore with one row per src, like
// the engine's directed links, so a deployment pays for the pairs it
// measured, not for n^2.
//
// Staleness + fallback: a cell older than `max_age_s` no longer answers —
// unlike a coordinate, a point measurement says nothing once the paths have
// churned. Queries for stale or never-measured pairs fall back to an
// embedded coordinate backend fed the same stream (the hybrid deployment
// IDMS itself proposes for partial coverage); only when the fallback also
// has nothing does the query miss.
//
// Traffic model: each observation is one fixed-size matrix report to the
// service (src, dst, rtt, timestamp ~ kMatrixReportBytes) ON TOP of the
// coordinate state the fallback still needs piggybacked.
#pragma once

#include "common/link_store.hpp"
#include "estimate/coordinate_estimator.hpp"
#include "estimate/latency_estimator.hpp"

namespace nc::est {

struct IDMSEstimatorConfig {
  /// Matrix cells older than this stop answering and fall back.
  double max_age_s = 600.0;
  /// EWMA weight of the newest sample when refreshing a live cell.
  double alpha = 0.3;
};

class IDMSEstimator final : public LatencyEstimator {
 public:
  /// One matrix report on the wire: two node ids, an RTT and a timestamp.
  static constexpr std::uint64_t kMatrixReportBytes = 20;

  /// A matrix over a `num_nodes`-node id space. A shard's instance fills
  /// only the rows of the nodes it owns.
  IDMSEstimator(const IDMSEstimatorConfig& config, int num_nodes);

  void on_observation(const LatencyObservation& obs) override;
  [[nodiscard]] std::optional<double> estimate_rtt(NodeId a, NodeId b,
                                                   double now_s) override;
  [[nodiscard]] const char* name() const noexcept override { return "idms"; }
  [[nodiscard]] EstimatorStats stats() const override;

  /// Ownership migration: the matrix is owner-partitioned by row, so a
  /// node's state is exactly its directed row, carried dst-ascending.
  [[nodiscard]] EstimatorNodeState extract_node_state(NodeId node) override;
  void install_node_state(NodeId node, const EstimatorNodeState& state) override;

 private:
  /// One directed measurement; updated_s < 0 marks "never measured" (the
  /// value a freshly touched cell reads as).
  struct Cell {
    double rtt_ms = 0.0;
    double updated_s = -1.0;
  };

  IDMSEstimatorConfig config_;
  /// Measured cells only: every live cell holds at least one sample.
  ShardLinkStore<Cell> cells_;
  CoordinateEstimator fallback_;

  std::uint64_t observations_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t direct_hits_ = 0;
  std::uint64_t fallback_hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t traffic_bytes_ = 0;
  double last_now_s_ = 0.0;
};

}  // namespace nc::est
