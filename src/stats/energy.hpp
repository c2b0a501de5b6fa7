// Energy distance between two multivariate samples (Szekely & Rizzo).
//
// The ENERGY update heuristic (paper Sec. V-B) tests whether the sliding
// "current" window of system coordinates has diverged from the frozen
// "start" window using
//
//   e(A,B) = n1*n2/(n1+n2) * ( 2/(n1*n2) * S_AB
//                              - 1/n1^2 * S_AA - 1/n2^2 * S_BB )
//
// where S_XY are sums of pairwise Euclidean distances (S_AA and S_BB over
// ordered pairs, so each unordered pair counts twice). energy_from_sums is
// the one implementation of that formula. energy_distance evaluates the
// sums directly in O(k^2) and is the reference; EnergyHeuristic
// (core/heuristics/windowed_heuristics.hpp) keeps them under window slides
// for O(k) per observation, and tests check that both agree.
#pragma once

#include <span>

#include "common/vec.hpp"

namespace nc::stats {

/// e(A, B) from the three pair-distance sums of samples of sizes n1 and n2.
[[nodiscard]] inline double energy_from_sums(double sum_ab, double sum_aa,
                                             double sum_bb, double n1,
                                             double n2) noexcept {
  return n1 * n2 / (n1 + n2) *
         (2.0 / (n1 * n2) * sum_ab - sum_aa / (n1 * n1) - sum_bb / (n2 * n2));
}

/// O(|a|*|b| + |a|^2 + |b|^2) direct evaluation. Requires non-empty samples.
[[nodiscard]] double energy_distance(std::span<const Vec> a, std::span<const Vec> b);

}  // namespace nc::stats
