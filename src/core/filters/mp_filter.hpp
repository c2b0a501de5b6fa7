// Moving-Percentile filter (paper Sec. IV).
//
// Keeps the last `history` raw observations per link and outputs their p-th
// percentile (nearest-rank). With the paper's best parameters — history 4,
// p = 25 — the output is the minimum of the last four samples: a non-linear
// low-pass filter that discards heavy-tail impulses while tracking genuine
// shifts in the underlying latency within `history` observations.
//
// `min_samples` withholds output until that many samples have been seen,
// fixing the first-sample pathology of Sec. VI (an extreme outlier arriving
// first on a link otherwise passes straight through the filter).
//
// A standalone owner of one row over MpKernel (core/filter.hpp), the same
// kernel NCClient drives over its slab rows.
#pragma once

#include "core/filter.hpp"

namespace nc {

class MovingPercentileFilter final : public LatencyFilter {
 public:
  /// history >= 1; percentile in [0,100]; 1 <= min_samples <= history.
  MovingPercentileFilter(int history, double percentile, int min_samples = 1)
      : LatencyFilter(
            FilterConfig::moving_percentile(history, percentile, min_samples)) {}

  [[nodiscard]] int history() const noexcept { return config().mp_history; }
  [[nodiscard]] double percentile() const noexcept { return config().mp_percentile; }
  [[nodiscard]] int min_samples() const noexcept { return config().mp_min_samples; }
};

}  // namespace nc
