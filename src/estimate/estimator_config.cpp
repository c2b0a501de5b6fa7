#include "estimate/estimator_config.hpp"

#include "common/check.hpp"
#include "estimate/coordinate_estimator.hpp"
#include "estimate/idms_estimator.hpp"
#include "estimate/snapshot_estimator.hpp"

namespace nc::est {

const char* backend_name(EstimatorBackend backend) noexcept {
  switch (backend) {
    case EstimatorBackend::kCoordinates:
      return "coordinates";
    case EstimatorBackend::kIdms:
      return "idms";
    case EstimatorBackend::kSnapshot:
      return "snapshot";
  }
  return "?";
}

std::optional<EstimatorBackend> backend_from_string(
    const std::string& name) noexcept {
  if (name == "coordinates") return EstimatorBackend::kCoordinates;
  if (name == "idms") return EstimatorBackend::kIdms;
  if (name == "snapshot") return EstimatorBackend::kSnapshot;
  return std::nullopt;
}

std::unique_ptr<LatencyEstimator> make_estimator(const EstimatorSpec& spec,
                                                 int num_nodes) {
  switch (spec.backend) {
    case EstimatorBackend::kCoordinates:
      return std::make_unique<CoordinateEstimator>(
          CoordinateEstimatorConfig{spec.max_age_s}, num_nodes);
    case EstimatorBackend::kIdms: {
      IDMSEstimatorConfig config;
      config.max_age_s = spec.max_age_s;
      config.alpha = spec.idms_alpha;
      return std::make_unique<IDMSEstimator>(config, num_nodes);
    }
    case EstimatorBackend::kSnapshot:
      // The engine wires spec.snapshot_source to its own publisher before
      // building shard instances; a null source still works (everything
      // goes through the coordinate fallback) so whole-run instances built
      // outside an engine don't trip over it.
      return std::make_unique<SnapshotEstimator>(
          SnapshotEstimatorConfig{spec.max_age_s}, spec.snapshot_source,
          num_nodes);
  }
  NC_CHECK_MSG(false, "unknown estimator backend");
  return nullptr;
}

}  // namespace nc::est
