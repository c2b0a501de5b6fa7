// Energy distance between two multivariate samples (Szekely & Rizzo).
//
// The ENERGY update heuristic (paper Sec. V-B) tests whether the sliding
// "current" window of system coordinates has diverged from the frozen
// "start" window using
//
//   e(A,B) = n1*n2/(n1+n2) * ( 2/(n1*n2) * S_AB
//                              - 1/n1^2 * S_AA - 1/n2^2 * S_BB )
//
// where S_XY are sums of pairwise Euclidean distances. A naive evaluation is
// O(k^2) per observation; IncrementalEnergy maintains the three sums under
// window pushes/pops for O(k) per observation. Tests verify both agree.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "common/vec.hpp"

namespace nc::stats {

/// O(|a|*|b| + |a|^2 + |b|^2) direct evaluation. Requires non-empty samples.
[[nodiscard]] double energy_distance(std::span<const Vec> a, std::span<const Vec> b);

/// Maintains e(A, B) where A is fixed (the "start" window) and B is a FIFO
/// sliding window ("current"), under push/pop of B elements.
class IncrementalEnergy {
 public:
  /// Freezes the base sample A and computes its self-distance sum.
  void set_base(std::span<const Vec> a);

  /// Appends v to the current window B.
  void push_current(const Vec& v);

  /// Removes the oldest element of B.
  void pop_current();

  void reset() noexcept;

  [[nodiscard]] bool has_base() const noexcept { return !a_.empty(); }
  [[nodiscard]] std::size_t base_size() const noexcept { return a_.size(); }
  [[nodiscard]] std::size_t current_size() const noexcept { return b_.size(); }

  /// Current e(A, B); requires both samples non-empty.
  [[nodiscard]] double value() const;

  /// Heap bytes of both samples (B counts its live elements).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (a_.capacity() + b_.size()) * sizeof(Vec);
  }

 private:
  std::vector<Vec> a_;
  std::deque<Vec> b_;
  double sum_aa_ = 0.0;  // sum over ordered pairs of A (each unordered pair twice)
  double sum_bb_ = 0.0;  // sum over ordered pairs of B
  double sum_ab_ = 0.0;  // sum over A x B
};

}  // namespace nc::stats
