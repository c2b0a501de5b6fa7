#include "core/heuristics/windowed_heuristics.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "stats/energy.hpp"
#include "stats/ranksum.hpp"

namespace nc {

// ------------------------------------------------------ WindowedHeuristic --

WindowedHeuristic::WindowedHeuristic(int window)
    : start_(window), current_(window + 1) {
  NC_CHECK_MSG(window >= 2, "window must be >= 2");
}

bool WindowedHeuristic::on_system_update(const UpdateContext& ctx, Coordinate& app) {
  const Vec v = ctx.system.as_vec();
  if (current_sum_.empty()) current_sum_ = Vec::zero(v.dim());
  current_.push_back(v);
  current_sum_ += v;
  const int k = window();
  if (current_.size() < k) return false;  // filling: W_s == W_c

  if (current_.size() == k) {  // W_s freezes as a copy of W_c
    start_.clear();
    for (int i = 0; i < k; ++i) start_.push_back(current_[i], v.dim());
    on_start_frozen();
    return false;
  }

  // Armed: W_s is frozen, W_c slides.
  const double* oldest = current_[0];
  on_slide(current_[k], oldest);
  for (int i = 0; i < v.dim(); ++i) current_sum_[i] -= oldest[i];
  current_.pop_front();

  if (!windows_differ(ctx)) return false;

  // Change point: publish the centroid of the current window and restart.
  ++change_points_;
  app = Coordinate::from_vec(current_centroid(), ctx.system.has_height());
  start_.clear();
  current_.clear();
  current_sum_ = Vec::zero(v.dim());
  on_cleared();
  return true;
}

void WindowedHeuristic::reset() {
  start_.release();
  current_.release();
  current_sum_ = Vec();
  change_points_ = 0;
  on_cleared();
}

Vec WindowedHeuristic::start_centroid() const {
  NC_CHECK_MSG(start_.size() > 0, "centroid of empty window");
  Vec sum = Vec::zero(start_.dim());
  for (int i = 0; i < start_.size(); ++i)
    for (int j = 0; j < sum.dim(); ++j) sum[j] += start_[i][j];
  return sum / static_cast<double>(start_.size());
}

Vec WindowedHeuristic::current_centroid() const {
  NC_CHECK_MSG(current_.size() > 0, "centroid of empty window");
  return current_sum_ / static_cast<double>(current_.size());
}

// ------------------------------------------------------- RelativeHeuristic --

RelativeHeuristic::RelativeHeuristic(double eps_r, int window)
    : WindowedHeuristic(window), eps_r_(eps_r) {
  NC_CHECK_MSG(eps_r > 0.0, "eps_r must be positive");
}

void RelativeHeuristic::on_start_frozen() { start_centroid_ = start_centroid(); }

void RelativeHeuristic::on_cleared() { start_centroid_ = Vec(); }

bool RelativeHeuristic::windows_differ(const UpdateContext& ctx) {
  // Without a known neighbor there is no local scale to compare against;
  // the paper learns r from latency samples, which every node has by the
  // time the windows fill.
  if (ctx.nearest == nullptr || !ctx.nearest->initialized()) return false;
  const double moved = start_centroid_.distance_to(current_centroid());
  const double scale =
      std::max(start_centroid_.distance_to(ctx.nearest->as_vec()), 1e-9);
  return moved / scale > eps_r_;
}

std::unique_ptr<UpdateHeuristic> RelativeHeuristic::clone() const {
  return std::make_unique<RelativeHeuristic>(eps_r_, window());
}

// --------------------------------------------------------- EnergyHeuristic --

EnergyHeuristic::EnergyHeuristic(double tau, int window)
    : WindowedHeuristic(window), tau_(tau) {
  NC_CHECK_MSG(tau > 0.0, "tau must be positive");
}

void EnergyHeuristic::on_start_frozen() {
  const PointRing& w = start_window();  // == W_c at the freeze
  const int k = w.size();
  const int d = w.dim();
  // tri[j(j-1)/2 + i] = |w_i - w_j| for i < j, column by column.
  thread_local std::vector<double> tri;
  const std::size_t pairs = static_cast<std::size_t>(k) * static_cast<std::size_t>(k - 1) / 2;
  if (tri.size() < pairs) tri.resize(pairs);
  const auto at = [](int i, int j) {  // i < j
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(j - 1) / 2 +
           static_cast<std::size_t>(i);
  };

  // S_AA: unordered pairs in row order, doubled.
  double s = 0.0;
  for (int i = 0; i < k; ++i)
    for (int j = i + 1; j < k; ++j) {
      const double dij = point_distance(w[i], w[j], d);
      tri[at(i, j)] = dij;
      s += dij;
    }
  sum_aa_ = 2.0 * s;

  // S_BB as the fill would have accumulated it: each arriving point against
  // the points before it, doubled term by term.
  double bb = 0.0;
  for (int j = 1; j < k; ++j)
    for (int i = 0; i < j; ++i) bb += 2.0 * tri[at(i, j)];
  sum_bb_ = bb;

  // S_AB over W_s x W_c in row order. The diagonal terms |w_i - w_i| are
  // +0.0 and leave the sum unchanged, so they are skipped.
  double ab = 0.0;
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < i; ++j) ab += tri[at(j, i)];
    for (int j = i + 1; j < k; ++j) ab += tri[at(i, j)];
  }
  sum_ab_ = ab;
}

void EnergyHeuristic::on_slide(const double* in, const double* out) {
  const PointRing& a = start_window();
  const PointRing& b = current_window();  // k + 1 points: out ... in
  const int k = a.size();
  const int d = a.dim();
  // Each sum takes its terms in the push/pop order (S_AB: + over W_s, then
  // - over W_s; S_BB: + over W_c before `in`, then - over W_c after `out`);
  // the two chains are only interleaved, and kept in registers.
  double ab = sum_ab_;
  double bb = sum_bb_;
  for (int i = 0; i < k; ++i) {
    ab += point_distance(a[i], in, d);
    bb += 2.0 * point_distance(b[i], in, d);
  }
  for (int i = 0; i < k; ++i) {
    bb -= 2.0 * point_distance(b[i + 1], out, d);
    ab -= point_distance(a[i], out, d);
  }
  sum_ab_ = ab;
  sum_bb_ = bb;
}

void EnergyHeuristic::on_cleared() { sum_aa_ = sum_bb_ = sum_ab_ = 0.0; }

bool EnergyHeuristic::windows_differ(const UpdateContext&) {
  const auto k = static_cast<double>(window());
  last_statistic_ = stats::energy_from_sums(sum_ab_, sum_aa_, sum_bb_, k, k);
  return last_statistic_ > tau_;
}

std::unique_ptr<UpdateHeuristic> EnergyHeuristic::clone() const {
  return std::make_unique<EnergyHeuristic>(tau_, window());
}

// -------------------------------------------------------- RankSumHeuristic --

RankSumHeuristic::RankSumHeuristic(double alpha, int window)
    : WindowedHeuristic(window), alpha_(alpha) {
  NC_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
}

void RankSumHeuristic::on_start_frozen() {
  start_centroid_ = start_centroid();
  const PointRing& w = start_window();
  const int k = w.size();
  dists_.resize(2 * static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    dists_[static_cast<std::size_t>(i)] =
        point_distance(start_centroid_.data(), w[i], w.dim());
  // W_c == W_s at freeze time, so its reduction is identical.
  std::copy_n(dists_.begin(), k, dists_.begin() + k);
  oldest_ = 0;
}

void RankSumHeuristic::on_slide(const double* in, const double*) {
  const int k = window();
  dists_[static_cast<std::size_t>(k + oldest_)] =
      point_distance(start_centroid_.data(), in, start_centroid_.dim());
  if (++oldest_ == k) oldest_ = 0;
}

void RankSumHeuristic::on_cleared() { start_centroid_ = Vec(); }

bool RankSumHeuristic::windows_differ(const UpdateContext&) {
  const auto k = static_cast<std::size_t>(window());
  const std::span<const double> all(dists_.data(), 2 * k);
  return stats::rank_sum_test(all.first(k), all.last(k)).p_two_sided < alpha_;
}

std::unique_ptr<UpdateHeuristic> RankSumHeuristic::clone() const {
  return std::make_unique<RankSumHeuristic>(alpha_, window());
}

}  // namespace nc
