// Backend selection: the one spec every layer plumbs through.
//
// ScenarioSpec, the engine configs and the --backend= flag all carry an
// EstimatorSpec; make_estimator() is the single construction point the
// sharded engine calls per shard. Keeping the enum + factory here (not in
// eval's registry) lets sim depend on estimate without a cycle — eval's
// registry layers named PRESETS (idms-volatile etc.) on top of this spec.
#pragma once

#include <memory>
#include <string>

#include "estimate/latency_estimator.hpp"

namespace nc::est {

class SnapshotPublisher;

enum class EstimatorBackend {
  kCoordinates,  // the paper's NC path (default; bit-identical to pre-seam)
  kIdms,         // measured delay matrix with coordinate fallback
  kSnapshot,     // published epoch snapshots with coordinate fallback
};

struct EstimatorSpec {
  EstimatorBackend backend = EstimatorBackend::kCoordinates;
  /// Staleness horizon for every backend's entry-age model.
  double max_age_s = 600.0;
  /// IDMS only: EWMA weight of the newest sample.
  double idms_alpha = 0.3;
  /// Snapshot backend only: where estimates are read from (non-owning; must
  /// outlive the estimator). Leave null to have the engine wire its own
  /// publisher — the sharded engine fills this in and turns snapshot
  /// publication on when it sees backend == kSnapshot. External consumers
  /// (serve::CoordinateService, tools querying a finished run) point it at
  /// the engine's snapshot_publisher().
  const SnapshotPublisher* snapshot_source = nullptr;
};

/// Canonical flag/report spelling of a backend.
[[nodiscard]] const char* backend_name(EstimatorBackend backend) noexcept;

/// Parses a --backend= value; nullopt for unknown spellings.
[[nodiscard]] std::optional<EstimatorBackend> backend_from_string(
    const std::string& name) noexcept;

/// Builds a backend instance over a num_nodes deployment. A shard's
/// instance is fed only its owned nodes' observations, so it holds state
/// for those nodes alone.
[[nodiscard]] std::unique_ptr<LatencyEstimator> make_estimator(
    const EstimatorSpec& spec, int num_nodes);

}  // namespace nc::est
