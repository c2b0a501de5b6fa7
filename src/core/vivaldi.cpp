#include "core/vivaldi.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace nc {

namespace {

Coordinate initial_coordinate(const VivaldiConfig& config) {
  if (!config.use_height) return Coordinate::origin(config.dim);
  return Coordinate(Vec::zero(config.dim), config.initial_height_ms);
}

}  // namespace

Vivaldi::Vivaldi(const VivaldiConfig& config, std::uint64_t node_seed)
    : config_(config),
      coord_(initial_coordinate(config)),
      error_(config.initial_error),
      rng_(Rng::derived(config.seed, node_seed)) {
  NC_CHECK_MSG(config.dim >= 1 && config.dim <= kMaxDim, "bad dimension");
  // Window statistics embed a height as one more component (as_vec()).
  NC_CHECK_MSG(config.dim + (config.use_height ? 1 : 0) <= kMaxDim,
               "no room to embed height: dim must be < kMaxDim with use_height");
  NC_CHECK_MSG(config.cc > 0.0 && config.cc <= 1.0, "cc out of (0,1]");
  NC_CHECK_MSG(config.ce > 0.0 && config.ce <= 1.0, "ce out of (0,1]");
  NC_CHECK_MSG(config.initial_error > 0.0 && config.initial_error <= config.max_error,
               "bad initial error");
  NC_CHECK_MSG(!config.use_height || config.initial_height_ms > 0.0,
               "initial height must be positive");
}

VivaldiSample Vivaldi::observe(const Coordinate& remote, double remote_error,
                               double rtt_ms) {
  NC_CHECK_MSG(rtt_ms > 0.0, "rtt must be positive");
  NC_CHECK_MSG(remote.dim() == config_.dim, "remote coordinate dimension mismatch");
  const double rtt = std::max(rtt_ms, config_.min_rtt_ms);
  ++observations_;

  VivaldiSample out;

  const double dist = coord_.distance_to(remote);
  double gap = rtt - dist;  // positive: spring compressed, push apart

  // Confidence building: within the measurement-error margin, the predicted
  // and observed latency are considered equal.
  if (config_.confidence_margin_ms > 0.0 &&
      std::fabs(gap) <= config_.confidence_margin_ms) {
    gap = 0.0;
    out.within_margin = true;
  }

  const double eps = std::fabs(gap) / rtt;
  out.relative_error = eps;

  // Observation weight: how uncertain am I relative to the remote node?
  const double sum_err = error_ + std::max(0.0, remote_error);
  const double w = sum_err > 0.0 ? error_ / sum_err : 0.0;

  // Adaptive EWMA of the local error estimate.
  const double alpha = config_.ce * w;
  error_ = std::clamp(alpha * eps + (1.0 - alpha) * error_, 0.0, config_.max_error);

  // Spring force on the coordinate.
  double delta = config_.cc * w;
  if (config_.delaunois_damping > 0.0) {
    delta *= config_.delaunois_damping /
             (config_.delaunois_damping + static_cast<double>(observations_));
  }

  if (gap == 0.0 || delta == 0.0) return out;

  // Direction of the push. With heights, the difference vector's "height"
  // component is the sum of both heights (p2psim semantics): a stretching
  // spring lifts the node off the plane as well as moving it in-plane. The
  // full unit direction is (dx, h_i + h_j) / (||dx|| + h_i + h_j).
  Vec spatial_dir = coord_.position() - remote.position();
  double spatial_norm = spatial_dir.norm();
  if (spatial_norm == 0.0) {
    // Spatially co-located (e.g. everyone starts at the origin): pick a
    // random in-plane direction to break the symmetry, unit length.
    spatial_dir = rng_.unit_vector(config_.dim);
    spatial_norm = 1.0;
  }
  const double height_component =
      config_.use_height ? coord_.height() + remote.height() : 0.0;
  const double norm = spatial_norm + height_component;

  const double magnitude = delta * gap;
  Vec spatial_move = spatial_dir * (magnitude / norm);
  const double height_move =
      config_.use_height ? magnitude * height_component / norm : 0.0;

  if (config_.gravity_rho > 0.0) {
    // Pull toward the origin by (||x||/rho)^2 ms, never overshooting it.
    const Vec pos = coord_.position();
    const double r = pos.norm();
    if (r > 0.0) {
      const double ratio = r / config_.gravity_rho;
      const double pull = std::min(ratio * ratio, r);
      spatial_move -= pos * (pull / r);
    }
  }

  const Coordinate before = coord_;
  coord_.apply_displacement(spatial_move, height_move, config_.min_height_ms);
  out.displacement_ms = coord_.displacement_from(before);
  NC_ASSERT(coord_.position().all_finite());
  return out;
}

void Vivaldi::reset() {
  coord_ = initial_coordinate(config_);
  error_ = config_.initial_error;
  observations_ = 0;
}

}  // namespace nc
