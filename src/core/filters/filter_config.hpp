// Value-type filter configuration.
//
// Experiment configs carry a FilterConfig; FilterKernel (core/filter.hpp)
// turns it into the per-link row kernel every filter owner drives. Defaults
// are the paper's recommended MP(4, 25).
#pragma once

#include <string>

namespace nc {

enum class FilterKind {
  kIdentity,          // "No Filter"
  kMovingPercentile,  // the paper's MP filter
  kEwma,
  kThreshold,
};

struct FilterConfig {
  FilterKind kind = FilterKind::kMovingPercentile;

  /// Longest MP history: a row tags each sample with a 16-bit ring slot.
  static constexpr int kMaxMpHistory = 1 << 16;

  // Moving percentile parameters.
  int mp_history = 4;
  double mp_percentile = 25.0;
  int mp_min_samples = 1;

  // EWMA parameter.
  double ewma_alpha = 0.10;

  // Threshold parameter.
  double threshold_ms = 1000.0;

  /// Throws CheckError unless the selected kind's parameters are usable:
  /// MP needs history in [1, kMaxMpHistory], percentile in [0, 100] and
  /// min_samples in [1, history]; EWMA needs alpha in (0, 1]; threshold
  /// needs a positive cutoff. Allocates nothing on success, so owners call
  /// it at construction, long before the first observation.
  void validate() const;
  [[nodiscard]] std::string name() const;

  [[nodiscard]] static FilterConfig none();
  [[nodiscard]] static FilterConfig moving_percentile(int history, double percentile,
                                                      int min_samples = 1);
  [[nodiscard]] static FilterConfig ewma(double alpha);
  [[nodiscard]] static FilterConfig threshold(double cutoff_ms);
};

}  // namespace nc
