// Fixed-cutoff filter (paper Sec. IV-B, "Thresholds").
//
// Drops any sample above a global cutoff. Stateless and simple, but a single
// cutoff cannot fit every link: a value that trims the global tail does
// nothing for a 30 ms link whose own outliers sit at 300 ms. Kept as the
// baseline the paper rejects. A standalone owner of one row over
// ThresholdKernel (core/filter.hpp).
#pragma once

#include "core/filter.hpp"

namespace nc {

class ThresholdFilter final : public LatencyFilter {
 public:
  /// Samples strictly above cutoff_ms are rejected (update returns nullopt).
  explicit ThresholdFilter(double cutoff_ms)
      : LatencyFilter(FilterConfig::threshold(cutoff_ms)) {}

  [[nodiscard]] double cutoff_ms() const noexcept { return config().threshold_ms; }
};

}  // namespace nc
