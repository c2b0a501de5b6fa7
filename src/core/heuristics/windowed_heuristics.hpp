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
//    from three pair-distance sums kept under the slides (stats/energy.hpp
//    has the formula and the O(k^2) reference).
//
// Storage: W_s is a k-point array and W_c a (k + 1)-point ring, both flat
// PointRings of d doubles per point, allocated at the first update (W_s at
// the first freeze); (2k + 1) * d doubles in all, and nothing allocated per
// observation. While filling, points go to W_c only, since W_s == W_c until
// the freeze copies them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/vec.hpp"
#include "core/heuristics/point_ring.hpp"
#include "core/heuristics/update_heuristic.hpp"

namespace nc {

/// Shared two-window bookkeeping. Derived classes implement the difference
/// test and may hook window transitions to maintain incremental state.
class WindowedHeuristic : public UpdateHeuristic {
 public:
  bool on_system_update(const UpdateContext& ctx, Coordinate& app) final;
  void reset() final;

  [[nodiscard]] int window() const noexcept { return start_.capacity(); }
  /// True once W_s is frozen and W_c slides (tests are being run).
  [[nodiscard]] bool armed() const noexcept { return current_.size() == window(); }
  /// Number of change points declared so far.
  [[nodiscard]] std::uint64_t change_points() const noexcept { return change_points_; }
  [[nodiscard]] std::size_t window_bytes() const noexcept override {
    return start_.bytes() + current_.bytes();
  }

 protected:
  explicit WindowedHeuristic(int window);

  /// W_s, oldest first; holds k points while armed.
  [[nodiscard]] const PointRing& start_window() const noexcept { return start_; }
  /// W_c, oldest first.
  [[nodiscard]] const PointRing& current_window() const noexcept { return current_; }
  [[nodiscard]] Vec start_centroid() const;
  [[nodiscard]] Vec current_centroid() const;

  /// The difference test, run after every slide while armed.
  [[nodiscard]] virtual bool windows_differ(const UpdateContext& ctx) = 0;

  // Incremental-state hooks.
  /// W_s just froze; W_c holds the same k points.
  virtual void on_start_frozen() = 0;
  /// W_c slid by one while armed: it momentarily holds k + 1 points, `out`
  /// (its oldest, about to leave) first and `in` (the newest) last.
  virtual void on_slide(const double* in, const double* out) = 0;
  /// Both windows were emptied (change point or reset()).
  virtual void on_cleared() = 0;

 private:
  PointRing start_;    // k points, frozen
  PointRing current_;  // k + 1 slots: a slide pushes before it pops
  Vec current_sum_;
  std::uint64_t change_points_ = 0;
};

class RelativeHeuristic final : public WindowedHeuristic {
 public:
  /// eps_r: relative movement threshold (paper sweeps 0.1-0.9; knee at 0.3).
  RelativeHeuristic(double eps_r, int window);
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }

 private:
  bool windows_differ(const UpdateContext& ctx) override;
  void on_start_frozen() override;
  void on_slide(const double*, const double*) override {}
  void on_cleared() override;

  double eps_r_;
  Vec start_centroid_;  // cached C(W_s); valid while armed
};

/// ENERGY keeps the three sums of e(W_s, W_c) — S_AA over W_s, S_BB over W_c
/// (ordered pairs) and S_AB across — in the floating-point operation order
/// of the push/pop algorithm (S_BB grown as each point arrives, S_AA and
/// S_AB summed at the freeze, one loop per window per push and per pop),
/// so every statistic is bit for bit that algorithm's; the deque-based
/// reference in tests/core/heuristic_reference_test.cpp pins it. It does
/// less distance work:
///  * S_BB is not summed while the windows fill (nothing reads it before
///    the freeze);
///  * at the freeze, W_s == W_c, so S_AA, S_AB and the fill's S_BB are all
///    summed from one triangle of k(k-1)/2 distances, held in per-thread
///    scratch reused across freezes;
///  * each slide then costs 4k distances (S_AB and S_BB, in and out).
class EnergyHeuristic final : public WindowedHeuristic {
 public:
  /// tau: energy-distance threshold (paper sweeps 1-256; knee at 8).
  EnergyHeuristic(double tau, int window);
  [[nodiscard]] std::unique_ptr<UpdateHeuristic> clone() const override;
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }

  /// e(W_s, W_c) as compared with tau at the latest armed update (the one
  /// that fired, after a change point); 0 before the first.
  [[nodiscard]] double last_statistic() const noexcept { return last_statistic_; }

 private:
  bool windows_differ(const UpdateContext& ctx) override;
  void on_start_frozen() override;
  void on_slide(const double* in, const double* out) override;
  void on_cleared() override;

  double tau_;
  double sum_aa_ = 0.0;  // ordered pairs of W_s (each unordered pair twice)
  double sum_bb_ = 0.0;  // ordered pairs of W_c
  double sum_ab_ = 0.0;  // W_s x W_c
  double last_statistic_ = 0.0;
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
  [[nodiscard]] std::size_t object_bytes() const noexcept override {
    return sizeof(*this);
  }
  [[nodiscard]] std::size_t window_bytes() const noexcept override {
    return WindowedHeuristic::window_bytes() + dists_.capacity() * sizeof(double);
  }

 private:
  bool windows_differ(const UpdateContext& ctx) override;
  void on_start_frozen() override;
  void on_slide(const double* in, const double* out) override;
  void on_cleared() override;

  double alpha_;
  Vec start_centroid_;
  // The two reductions, k each: W_s's, then W_c's as a ring whose oldest
  // entry sits at `oldest_`. rank_sum_test depends only on the two samples
  // as multisets, so the ring is passed rotated as it stands.
  std::vector<double> dists_;
  int oldest_ = 0;
};

}  // namespace nc
