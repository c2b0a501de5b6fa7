// CoordinateService: the query front end over published epoch snapshots.
//
// The application surface the paper's embedding exists for (and the shape
// of the anycast-over-coordinates systems in PAPERS.md): clients ask
// "how far is a from b", "which k nodes are nearest to me", "where is the
// center of this replica group" — and the answers come from LIVE engine
// state, concurrently with the simulation advancing, through the
// est::SnapshotPublisher seam (estimate/snapshot.hpp).
//
// Distance queries go through the existing LatencyEstimator interface (an
// owned SnapshotEstimator), so a service answer and an engine-side
// --backend=snapshot score are the same computation; nearest-k and centroid
// scan the snapshot directly (they need the whole frozen view, which is
// exactly what a snapshot is).
//
// Thread contract: a CoordinateService instance is NOT internally
// synchronized — it keeps per-instance query counters and a materialized
// SnapshotView — but it is cheap (a few vectors of num_nodes entries) and
// entirely read-only towards the engine, so the serving pattern is ONE
// INSTANCE PER CLIENT THREAD over the same publisher (perfbench's
// serve-churn client does exactly that). Every query refreshes the
// estimator's view: a cached-version no-op between publishes, one
// pointer-sized critical section when something new was published, and —
// in delta mode — an O(changed slots) apply instead of any O(n) work.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/coordinate.hpp"
#include "core/node_id.hpp"
#include "estimate/snapshot.hpp"
#include "estimate/snapshot_estimator.hpp"

namespace nc::serve {

/// Per-instance query counters; empty_answers counts queries that found no
/// usable snapshot state — before the first publish, or unplaced/down
/// endpoints.
struct ServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t distance_queries = 0;
  std::uint64_t nearest_queries = 0;
  std::uint64_t centroid_queries = 0;
  std::uint64_t empty_answers = 0;
};

class CoordinateService {
 public:
  /// `source` is non-owning and must outlive the service; `num_nodes` is
  /// the id space queries may name.
  CoordinateService(const est::SnapshotPublisher* source, int num_nodes);

  struct Neighbor {
    NodeId id = kInvalidNode;
    double rtt_ms = 0.0;
  };

  /// Predicted RTT (ms) between two nodes, answered through the estimator
  /// seam; nullopt before any snapshot covers both endpoints.
  [[nodiscard]] std::optional<double> distance_ms(NodeId a, NodeId b);

  /// The up-to-k nearest placed nodes to `origin`'s own coordinate,
  /// ascending predicted RTT (ties by id), excluding origin itself. Nodes
  /// marked down are skipped unless `include_down`. Empty when origin is
  /// not yet placed (or nothing is published). `out` is overwritten —
  /// callers reuse it across queries to stay allocation-free.
  void nearest_k(NodeId origin, int k, std::vector<Neighbor>& out,
                 bool include_down = false);

  /// Coordinate centroid of the placed nodes among `ids` (replica-group
  /// placement: the point an operator should sit near); nullopt when none
  /// are placed.
  [[nodiscard]] std::optional<Coordinate> centroid(
      const std::vector<NodeId>& ids);

  /// Version of the snapshot the last query ran against (0 before any).
  [[nodiscard]] std::uint64_t snapshot_version() const noexcept {
    return last_version_;
  }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }

 private:
  /// Latest reconstructable snapshot, via the estimator's SnapshotView so
  /// scans and distance queries always agree on the epoch; nullptr before
  /// the first publish. Valid until the next view() call.
  [[nodiscard]] const est::EpochSnapshot* view();

  int num_nodes_;
  est::SnapshotEstimator estimator_;
  /// Scratch for nearest_k's candidate scan, reused across queries.
  std::vector<Neighbor> scratch_;
  ServiceStats stats_;
  std::uint64_t last_version_ = 0;
};

}  // namespace nc::serve
