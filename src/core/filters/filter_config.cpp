#include "core/filters/filter_config.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace nc {

void FilterConfig::validate() const {
  switch (kind) {
    case FilterKind::kIdentity:
      return;
    case FilterKind::kMovingPercentile:
      NC_CHECK_MSG(mp_history >= 1, "history must be >= 1");
      // The MP row tags each sample with its 16-bit ring slot.
      NC_CHECK_MSG(mp_history <= kMaxMpHistory, "history exceeds the arrival tags");
      NC_CHECK_MSG(mp_percentile >= 0.0 && mp_percentile <= 100.0,
                   "percentile out of range");
      NC_CHECK_MSG(mp_min_samples >= 1 && mp_min_samples <= mp_history,
                   "min_samples must be in [1, history]");
      return;
    case FilterKind::kEwma:
      NC_CHECK_MSG(ewma_alpha > 0.0 && ewma_alpha <= 1.0, "alpha must be in (0,1]");
      return;
    case FilterKind::kThreshold:
      NC_CHECK_MSG(threshold_ms > 0.0, "cutoff must be positive");
      return;
  }
  NC_CHECK_MSG(false, "unknown filter kind");
}

std::string FilterConfig::name() const {
  char buf[64];
  switch (kind) {
    case FilterKind::kIdentity:
      return "none";
    case FilterKind::kMovingPercentile:
      std::snprintf(buf, sizeof buf, "mp(h=%d,p=%g)", mp_history, mp_percentile);
      return buf;
    case FilterKind::kEwma:
      std::snprintf(buf, sizeof buf, "ewma(a=%g)", ewma_alpha);
      return buf;
    case FilterKind::kThreshold:
      std::snprintf(buf, sizeof buf, "threshold(%gms)", threshold_ms);
      return buf;
  }
  return "unknown";
}

FilterConfig FilterConfig::none() {
  FilterConfig c;
  c.kind = FilterKind::kIdentity;
  return c;
}

FilterConfig FilterConfig::moving_percentile(int history, double percentile,
                                             int min_samples) {
  FilterConfig c;
  c.kind = FilterKind::kMovingPercentile;
  c.mp_history = history;
  c.mp_percentile = percentile;
  c.mp_min_samples = min_samples;
  return c;
}

FilterConfig FilterConfig::ewma(double alpha) {
  FilterConfig c;
  c.kind = FilterKind::kEwma;
  c.ewma_alpha = alpha;
  return c;
}

FilterConfig FilterConfig::threshold(double cutoff_ms) {
  FilterConfig c;
  c.kind = FilterKind::kThreshold;
  c.threshold_ms = cutoff_ms;
  return c;
}

}  // namespace nc
