#include "core/filter.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "stats/percentile.hpp"

namespace nc {

std::optional<double> MpKernel::update(const FilterConfig& c, FilterState& s,
                                       double* row, double raw_ms) {
  const auto history = static_cast<std::uint32_t>(c.mp_history);
  double* ring = row;
  double* sorted = row + history;
  std::uint32_t held = s.count;
  if (held < history) {
    ring[held] = raw_ms;
  } else {
    // Evict the oldest sample from the sorted copy, then overwrite it.
    const double evicted = ring[s.cursor];
    double* const end = sorted + held;
    double* const it = std::lower_bound(sorted, end, evicted);
    NC_ASSERT(it != end);
    std::copy(it + 1, end, it);
    --held;
    ring[s.cursor] = raw_ms;
    s.cursor = (s.cursor + 1) % history;
  }
  double* const end = sorted + held;
  double* const pos = std::upper_bound(sorted, end, raw_ms);
  std::copy_backward(pos, end, end + 1);
  *pos = raw_ms;
  s.count = held + 1;
  return estimate(c, s, row);
}

std::optional<double> MpKernel::estimate(const FilterConfig& c,
                                         const FilterState& s,
                                         const double* row) {
  if (static_cast<int>(s.count) < c.mp_min_samples) return std::nullopt;
  const double* sorted = row + c.mp_history;
  return stats::percentile_nearest_rank_sorted(
      std::span<const double>(sorted, s.count), c.mp_percentile);
}

FilterKernel::FilterKernel(const FilterConfig& config) : config_(config) {
  config_.validate();
}

}  // namespace nc
