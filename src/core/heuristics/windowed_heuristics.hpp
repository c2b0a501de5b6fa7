// Window-based change-detection heuristics: RELATIVE and ENERGY
// (paper Secs. V-A, V-B, V-D).
//
// Both adapt the two-window stream change-detection scheme of Kifer,
// Ben-David & Gehrke: the stream of system coordinates is split into a
// "start" window W_s (frozen once it reaches k elements) and a "current"
// window W_c (sliding, also k elements). After every slide the two windows
// are compared; when they are declared different, a change point has
// occurred: the application coordinate is set to the CENTROID of W_c and
// both windows restart empty.
//
//  * RELATIVE compares the centroid displacement against the distance to the
//    node's nearest known neighbor:
//        ||C(W_s) - C(W_c)|| / ||C(W_s) - r|| > eps_r
//  * ENERGY applies the Szekely-Rizzo energy-distance statistic:
//        e(W_s, W_c) > tau
//    (maintained incrementally in O(k) per observation; see stats/energy.hpp)
#pragma once

#include <deque>
#include <vector>

#include "common/vec.hpp"
#include "core/heuristics/update_heuristic.hpp"
#include "stats/energy.hpp"

namespace nc {

/// Shared two-window bookkeeping. Derived classes implement the difference
/// test and may hook window transitions to maintain incremental state.
class WindowedHeuristic : public UpdateHeuristic {
 public:
  bool on_system_update(const UpdateContext& ctx, Coordinate& app) final;
  void reset() final;

  [[nodiscard]] int window() const noexcept { return window_; }
  /// True once W_s is frozen and W_c slides (tests are being run).
  [[nodiscard]] bool armed() const noexcept {
    return static_cast<int>(start_.size()) == window_;
  }
  /// Number of change points declared so far.
  [[nodiscard]] std::uint64_t change_points() const noexcept { return change_points_; }
  [[nodiscard]] std::size_t window_bytes() const noexcept override {
    return (start_.capacity() + current_.size()) * sizeof(Vec);
  }

 protected:
  explicit WindowedHeuristic(int window);

  [[nodiscard]] const std::vector<Vec>& start_window() const noexcept { return start_; }
  [[nodiscard]] const std::deque<Vec>& current_window() const noexcept { return current_; }
  [[nodiscard]] Vec current_centroid() const;

  /// The difference test, run after every slide while armed.
  [[nodiscard]] virtual bool windows_differ(const UpdateContext& ctx) = 0;

  // Incremental-state hooks.
  virtual void on_current_push(const Vec& v) = 0;
  virtual void on_current_pop(const Vec& v) = 0;
  virtual void on_start_frozen() = 0;
  virtual void on_cleared() = 0;

 private:
  int window_;
  std::vector<Vec> start_;
  std::deque<Vec> current_;
  Vec current_sum_;
  std::uint64_t change_points_ = 0;
};

class RelativeHeuristic final : public WindowedHeuristic {
 public:
  /// eps_r: relative movement threshold (paper sweeps 0.1-0.9; knee at 0.3).
  RelativeHeuristic(double eps_r, int window);
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;

 private:
  bool windows_differ(const UpdateContext& ctx) override;
  void on_current_push(const Vec&) override {}
  void on_current_pop(const Vec&) override {}
  void on_start_frozen() override;
  void on_cleared() override;

  double eps_r_;
  Vec start_centroid_;  // cached C(W_s); valid while armed
};

class EnergyHeuristic final : public WindowedHeuristic {
 public:
  /// tau: energy-distance threshold (paper sweeps 1-256; knee at 8).
  EnergyHeuristic(double tau, int window);
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t window_bytes() const noexcept override {
    return WindowedHeuristic::window_bytes() + energy_.memory_bytes();
  }

 private:
  bool windows_differ(const UpdateContext& ctx) override;
  void on_current_push(const Vec& v) override;
  void on_current_pop(const Vec& v) override;
  void on_start_frozen() override;
  void on_cleared() override;

  double tau_;
  stats::IncrementalEnergy energy_;
};

/// RANKSUM (extension): Kifer et al.'s change detection uses classical
/// two-sample tests, which are one-dimensional — the reason the paper had
/// to reach for RELATIVE/ENERGY. This heuristic applies the obvious 1-D
/// reduction — each coordinate's distance to the frozen start centroid —
/// and runs the Wilcoxon rank-sum test on the two windows. It serves as the
/// "what if we had just used the well-known test" baseline: blind to pure
/// direction changes at constant radius from C(W_s).
class RankSumHeuristic final : public WindowedHeuristic {
 public:
  /// alpha: two-sided p-value below which a change point is declared
  /// (smaller alpha => fewer updates).
  RankSumHeuristic(double alpha, int window);
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t window_bytes() const noexcept override {
    return WindowedHeuristic::window_bytes() +
           (start_dists_.capacity() + current_dists_.size()) * sizeof(double);
  }

 private:
  bool windows_differ(const UpdateContext& ctx) override;
  void on_current_push(const Vec& v) override;
  void on_current_pop(const Vec& v) override;
  void on_start_frozen() override;
  void on_cleared() override;

  double alpha_;
  Vec start_centroid_;
  std::vector<double> start_dists_;
  std::deque<double> current_dists_;
};

}  // namespace nc
