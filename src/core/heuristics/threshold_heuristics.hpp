// Windowless update heuristics: ALWAYS, SYSTEM, APPLICATION and the
// APPLICATION/CENTROID hybrid (paper Secs. V-B, V-E, V-G).
//
// These trade accuracy directly against stability through a single movement
// threshold tau (ms in coordinate space) and are sensitive to its tuning —
// the baselines the windowed heuristics are compared against. Only
// APPLICATION/CENTROID keeps a window: a k-point flat ring allocated at its
// first update (point_ring.hpp), so no observation allocates.
#pragma once

#include "common/vec.hpp"
#include "core/heuristics/point_ring.hpp"
#include "core/heuristics/update_heuristic.hpp"

namespace nc {

/// Publishes every system update: c_a == c_s ("Raw" rows in the paper).
class AlwaysUpdateHeuristic final : public UpdateHeuristic {
 public:
  bool on_system_update(const UpdateContext& ctx, Coordinate& app) override;
  void reset() override {}
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }
};

/// SYSTEM: update when one step of the system coordinate moved farther than
/// tau:  ||c_s(t) - c_s(t-1)|| > tau  =>  c_a = c_s.
/// Pathology (paper): many sub-threshold steps in one direction never fire.
class SystemHeuristic final : public UpdateHeuristic {
 public:
  explicit SystemHeuristic(double tau_ms);
  bool on_system_update(const UpdateContext& ctx, Coordinate& app) override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }

 private:
  double tau_ms_;
  Coordinate prev_system_;
};

/// APPLICATION: update when the application's view drifted too far from the
/// system's:  ||c_a - c_s|| > tau  =>  c_a = c_s.
class ApplicationHeuristic final : public UpdateHeuristic {
 public:
  explicit ApplicationHeuristic(double tau_ms);
  bool on_system_update(const UpdateContext& ctx, Coordinate& app) override;
  void reset() override {}
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }

 private:
  double tau_ms_;
};

/// APPLICATION/CENTROID (Sec. V-G): triggers like APPLICATION but publishes
/// the centroid of the last `window` system coordinates, isolating how much
/// of the windowed heuristics' win comes from *what* they publish vs *when*.
class ApplicationCentroidHeuristic final : public UpdateHeuristic {
 public:
  ApplicationCentroidHeuristic(double tau_ms, int window);
  bool on_system_update(const UpdateContext& ctx, Coordinate& app) override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }
  [[nodiscard]] std::size_t window_bytes() const noexcept override {
    return recent_.bytes();
  }

 private:
  double tau_ms_;
  PointRing recent_;  // the last `window` system coordinates
  Vec sum_;
};

}  // namespace nc
