// Exponentially-weighted moving average filter (paper Sec. IV-B, Table I).
//
// The conventional smoothing baseline:  v <- alpha*s + (1-alpha)*v.
// The paper shows it performs WORSE than no filter on latency streams: the
// heavy-tail outliers are not a trend to be tracked but impulses to discard,
// and every outlier pollutes the average for ~1/alpha subsequent samples.
// Kept as a faithful baseline for Table I. A standalone owner of one row
// over EwmaKernel (core/filter.hpp).
#pragma once

#include "core/filter.hpp"

namespace nc {

class EwmaFilter final : public LatencyFilter {
 public:
  /// alpha in (0, 1]: weight of the newest observation.
  explicit EwmaFilter(double alpha) : LatencyFilter(FilterConfig::ewma(alpha)) {}

  [[nodiscard]] double alpha() const noexcept { return config().ewma_alpha; }
};

}  // namespace nc
