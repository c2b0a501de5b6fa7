#include "core/heuristics/threshold_heuristics.hpp"

#include "common/check.hpp"

namespace nc {

// ---------------------------------------------------------------- ALWAYS --

bool AlwaysUpdateHeuristic::on_system_update(const UpdateContext& ctx,
                                             Coordinate& app) {
  const bool changed = !(app == ctx.system);
  app = ctx.system;
  return changed;
}

std::unique_ptr<UpdateHeuristic> AlwaysUpdateHeuristic::clone() const {
  return std::make_unique<AlwaysUpdateHeuristic>();
}

// ---------------------------------------------------------------- SYSTEM --

SystemHeuristic::SystemHeuristic(double tau_ms) : tau_ms_(tau_ms) {
  NC_CHECK_MSG(tau_ms > 0.0, "tau must be positive");
}

bool SystemHeuristic::on_system_update(const UpdateContext& ctx, Coordinate& app) {
  if (!prev_system_.initialized()) {
    prev_system_ = ctx.system;
    return false;
  }
  const double step = ctx.system.displacement_from(prev_system_);
  prev_system_ = ctx.system;
  if (step > tau_ms_) {
    app = ctx.system;
    return true;
  }
  return false;
}

void SystemHeuristic::reset() { prev_system_ = Coordinate(); }

std::unique_ptr<UpdateHeuristic> SystemHeuristic::clone() const {
  return std::make_unique<SystemHeuristic>(tau_ms_);
}

// ----------------------------------------------------------- APPLICATION --

ApplicationHeuristic::ApplicationHeuristic(double tau_ms) : tau_ms_(tau_ms) {
  NC_CHECK_MSG(tau_ms > 0.0, "tau must be positive");
}

bool ApplicationHeuristic::on_system_update(const UpdateContext& ctx,
                                            Coordinate& app) {
  if (ctx.system.displacement_from(app) > tau_ms_) {
    app = ctx.system;
    return true;
  }
  return false;
}

std::unique_ptr<UpdateHeuristic> ApplicationHeuristic::clone() const {
  return std::make_unique<ApplicationHeuristic>(tau_ms_);
}

// -------------------------------------------------- APPLICATION/CENTROID --

ApplicationCentroidHeuristic::ApplicationCentroidHeuristic(double tau_ms, int window)
    : tau_ms_(tau_ms), recent_(window) {
  NC_CHECK_MSG(tau_ms > 0.0, "tau must be positive");
}

bool ApplicationCentroidHeuristic::on_system_update(const UpdateContext& ctx,
                                                    Coordinate& app) {
  const Vec v = ctx.system.as_vec();
  if (sum_.dim() == 0) sum_ = Vec::zero(v.dim());
  sum_ += v;
  if (recent_.full()) {
    const double* oldest = recent_[0];
    for (int i = 0; i < v.dim(); ++i) sum_[i] -= oldest[i];
    recent_.pop_front();
  }
  recent_.push_back(v);

  if (ctx.system.displacement_from(app) > tau_ms_) {
    const Vec centroid = sum_ / static_cast<double>(recent_.size());
    app = Coordinate::from_vec(centroid, ctx.system.has_height());
    return true;
  }
  return false;
}

void ApplicationCentroidHeuristic::reset() {
  recent_.release();
  sum_ = Vec();
}

std::unique_ptr<UpdateHeuristic> ApplicationCentroidHeuristic::clone() const {
  return std::make_unique<ApplicationCentroidHeuristic>(tau_ms_, recent_.capacity());
}

}  // namespace nc
