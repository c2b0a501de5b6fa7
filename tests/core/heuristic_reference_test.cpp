// Bit-identity pin for the heuristic windows: ENERGY, RELATIVE, RANKSUM and
// APPLICATION/CENTROID on flat point rings must make exactly the decisions,
// publish exactly the coordinates and (ENERGY) compute exactly the
// statistics of the deque algorithm below, which is the windows' reference
// implementation: both windows as std::vector/std::deque of Vec, and the
// energy sums maintained by one loop per window on every push and pop
// (S_BB summed during the fill, S_AA and S_AB rebuilt at the freeze).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/heuristics/threshold_heuristics.hpp"
#include "core/heuristics/windowed_heuristics.hpp"
#include "stats/ranksum.hpp"

namespace nc {
namespace {

// ------------------------------------------------------------- reference --

double pairwise_sum(std::span<const Vec> xs) {
  double s = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (std::size_t j = i + 1; j < xs.size(); ++j) s += xs[i].distance_to(xs[j]);
  return 2.0 * s;
}

// e(A, B) for a fixed A and a FIFO window B, sums kept under push/pop.
class RefEnergy {
 public:
  void set_base(std::span<const Vec> a) {
    a_.assign(a.begin(), a.end());
    sum_aa_ = pairwise_sum(a_);
    sum_ab_ = 0.0;
    for (const Vec& x : a_)
      for (const Vec& y : b_) sum_ab_ += x.distance_to(y);
  }
  void push_current(const Vec& v) {
    for (const Vec& x : a_) sum_ab_ += x.distance_to(v);
    for (const Vec& y : b_) sum_bb_ += 2.0 * y.distance_to(v);
    b_.push_back(v);
  }
  void pop_current() {
    const Vec v = b_.front();
    b_.pop_front();
    for (const Vec& y : b_) sum_bb_ -= 2.0 * y.distance_to(v);
    for (const Vec& x : a_) sum_ab_ -= x.distance_to(v);
  }
  void reset() {
    a_.clear();
    b_.clear();
    sum_aa_ = sum_bb_ = sum_ab_ = 0.0;
  }
  [[nodiscard]] double value() const {
    const auto n1 = static_cast<double>(a_.size());
    const auto n2 = static_cast<double>(b_.size());
    return n1 * n2 / (n1 + n2) *
           (2.0 / (n1 * n2) * sum_ab_ - sum_aa_ / (n1 * n1) - sum_bb_ / (n2 * n2));
  }

 private:
  std::vector<Vec> a_;
  std::deque<Vec> b_;
  double sum_aa_ = 0.0;
  double sum_bb_ = 0.0;
  double sum_ab_ = 0.0;
};

enum class Kind { kEnergy, kRelative, kRankSum, kAppCentroid };

// The two-window protocol with every window a deque of Vecs.
class RefHeuristic {
 public:
  RefHeuristic(Kind kind, double threshold, int k)
      : kind_(kind), threshold_(threshold), k_(k) {}

  bool update(const Coordinate& system, const Coordinate* nearest, Coordinate& app) {
    const Vec v = system.as_vec();
    if (sum_.dim() == 0) sum_ = Vec::zero(v.dim());
    if (kind_ == Kind::kAppCentroid) return app_centroid(system, v, app);
    if (static_cast<int>(start_.size()) < k_) {
      start_.push_back(v);
      current_.push_back(v);
      sum_ += v;
      if (kind_ == Kind::kEnergy) energy_.push_current(v);
      if (static_cast<int>(start_.size()) == k_) freeze();
      return false;
    }
    current_.push_back(v);
    sum_ += v;
    if (kind_ == Kind::kEnergy) energy_.push_current(v);
    if (kind_ == Kind::kRankSum) current_dists_.push_back(centroid_.distance_to(v));
    const Vec oldest = current_.front();
    current_.pop_front();
    sum_ -= oldest;
    if (kind_ == Kind::kEnergy) energy_.pop_current();
    if (kind_ == Kind::kRankSum) current_dists_.pop_front();

    if (!differ(nearest)) return false;
    ++change_points_;
    app = Coordinate::from_vec(sum_ / static_cast<double>(current_.size()),
                               system.has_height());
    clear(v.dim());
    return true;
  }

  void reset() {
    clear(0);
    change_points_ = 0;
  }

  [[nodiscard]] bool armed() const { return static_cast<int>(start_.size()) == k_; }
  [[nodiscard]] double statistic() const { return statistic_; }
  [[nodiscard]] std::uint64_t change_points() const { return change_points_; }

 private:
  bool app_centroid(const Coordinate& system, const Vec& v, Coordinate& app) {
    current_.push_back(v);
    sum_ += v;
    if (static_cast<int>(current_.size()) > k_) {
      sum_ -= current_.front();
      current_.pop_front();
    }
    if (system.displacement_from(app) <= threshold_) return false;
    app = Coordinate::from_vec(sum_ / static_cast<double>(current_.size()),
                               system.has_height());
    return true;
  }

  void freeze() {
    Vec s = Vec::zero(start_.front().dim());
    for (const Vec& x : start_) s += x;
    centroid_ = s / static_cast<double>(start_.size());
    if (kind_ == Kind::kEnergy) energy_.set_base(start_);
    if (kind_ == Kind::kRankSum) {
      start_dists_.clear();
      for (const Vec& x : start_) start_dists_.push_back(centroid_.distance_to(x));
      current_dists_.assign(start_dists_.begin(), start_dists_.end());
    }
  }

  bool differ(const Coordinate* nearest) {
    switch (kind_) {
      case Kind::kEnergy:
        statistic_ = energy_.value();
        return statistic_ > threshold_;
      case Kind::kRelative: {
        if (nearest == nullptr || !nearest->initialized()) return false;
        const Vec c = sum_ / static_cast<double>(current_.size());
        const double moved = centroid_.distance_to(c);
        const double scale = std::max(centroid_.distance_to(nearest->as_vec()), 1e-9);
        return moved / scale > threshold_;
      }
      case Kind::kRankSum: {
        const std::vector<double> cur(current_dists_.begin(), current_dists_.end());
        return stats::rank_sum_test(start_dists_, cur).p_two_sided < threshold_;
      }
      case Kind::kAppCentroid:
        break;
    }
    return false;
  }

  void clear(int dim) {
    start_.clear();
    current_.clear();
    sum_ = dim > 0 ? Vec::zero(dim) : Vec();
    energy_.reset();
    centroid_ = Vec();
    start_dists_.clear();
    current_dists_.clear();
  }

  Kind kind_;
  double threshold_;
  int k_;
  std::vector<Vec> start_;
  std::deque<Vec> current_;
  Vec sum_;
  RefEnergy energy_;
  Vec centroid_;
  std::vector<double> start_dists_;
  std::deque<double> current_dists_;
  double statistic_ = 0.0;
  std::uint64_t change_points_ = 0;
};

// ------------------------------------------------------------------- pin --

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Coordinate& a, const Coordinate& b) {
  if (a.dim() != b.dim() || a.has_height() != b.has_height()) return false;
  for (int i = 0; i < a.dim(); ++i)
    if (!same_bits(a.position()[i], b.position()[i])) return false;
  return same_bits(a.height(), b.height());
}

std::unique_ptr<UpdateHeuristic> make(Kind kind, double threshold, int k) {
  switch (kind) {
    case Kind::kEnergy:
      return std::make_unique<EnergyHeuristic>(threshold, k);
    case Kind::kRelative:
      return std::make_unique<RelativeHeuristic>(threshold, k);
    case Kind::kRankSum:
      return std::make_unique<RankSumHeuristic>(threshold, k);
    case Kind::kAppCentroid:
      return std::make_unique<ApplicationCentroidHeuristic>(threshold, k);
  }
  return nullptr;
}

double threshold_of(Kind kind) {
  switch (kind) {
    case Kind::kEnergy:
      return 8.0;  // the paper's tau
    case Kind::kRelative:
      return 0.3;  // the paper's eps_r
    case Kind::kRankSum:
      return 0.05;
    case Kind::kAppCentroid:
      return 4.0;
  }
  return 0.0;
}

// A random walk with occasional jumps, in `dim` dimensions plus an optional
// height, and a nearest neighbor that follows it at ~20 ms.
struct Stream {
  Stream(int dim, bool height, std::uint64_t seed) : dim(dim), height(height), rng(seed) {}

  Coordinate next() {
    if (rng.uniform(0.0, 1.0) < 0.01) center += rng.unit_vector(dim) * rng.uniform(5.0, 80.0);
    Vec pos = center;
    for (int i = 0; i < dim; ++i) pos[i] += rng.normal(0.0, 0.8);
    if (!height) return Coordinate{pos};
    return Coordinate{pos, std::max(0.0, 2.0 + rng.normal(0.0, 0.5))};
  }

  Coordinate nearest() const {
    Vec pos = center;
    pos[0] += 20.0;
    return height ? Coordinate{pos, 1.0} : Coordinate{pos};
  }

  int dim;
  bool height;
  Rng rng;
  Vec center = Vec::zero(dim);
};

TEST(HeuristicWindows, MatchDequeReferenceBitForBit) {
  const int kSteps = 1500;
  std::uint64_t seed = 1;
  for (Kind kind : {Kind::kEnergy, Kind::kRelative, Kind::kRankSum, Kind::kAppCentroid}) {
    std::uint64_t kind_updates = 0;
    for (int dim : {2, 3, 5}) {
      for (bool height : {false, true}) {
        for (int k : {2, 4, 16, 32}) {
          SCOPED_TRACE(::testing::Message() << "kind " << static_cast<int>(kind) << " dim "
                                            << dim << " height " << height << " k " << k);
          const double threshold = threshold_of(kind);
          auto h = make(kind, threshold, k);
          RefHeuristic ref(kind, threshold, k);
          Stream stream(dim, height, seed++);
          Coordinate app = stream.next();
          Coordinate ref_app = app;
          for (int step = 0; step < kSteps; ++step) {
            if (step == kSteps / 2) {  // mid-stream reset
              h->reset();
              ref.reset();
            }
            const Coordinate sys = stream.next();
            const Coordinate nearest = stream.nearest();
            const bool fired = h->on_system_update({sys, &nearest, 0.0}, app);
            const bool ref_fired = ref.update(sys, &nearest, ref_app);
            ASSERT_EQ(fired, ref_fired) << "step " << step;
            ASSERT_TRUE(same_bits(app, ref_app)) << "step " << step << ": " << app
                                                 << " vs " << ref_app;
            if (fired) ++kind_updates;
            if (kind != Kind::kAppCentroid) {
              const auto& w = static_cast<const WindowedHeuristic&>(*h);
              ASSERT_EQ(w.armed(), ref.armed()) << "step " << step;
            }
            if (kind == Kind::kEnergy) {
              const auto& e = static_cast<const EnergyHeuristic&>(*h);
              ASSERT_TRUE(same_bits(e.last_statistic(), ref.statistic()))
                  << "step " << step << ": " << e.last_statistic() << " vs "
                  << ref.statistic();
            }
          }
          if (kind != Kind::kAppCentroid) {
            const auto& w = static_cast<const WindowedHeuristic&>(*h);
            EXPECT_EQ(w.change_points(), ref.change_points());
          }
        }
      }
    }
    // Every kind actually published along the way.
    EXPECT_GT(kind_updates, 100u) << "kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace nc
