#include "core/filter.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/check.hpp"
#include "stats/percentile.hpp"

namespace nc {

namespace {

MpKernel::Tag tag_at(const std::byte* tags, std::size_t k) noexcept {
  MpKernel::Tag t;
  std::memcpy(&t, tags + k * sizeof t, sizeof t);
  return t;
}

}  // namespace

std::optional<double> MpKernel::update(const FilterConfig& c, FilterState& s,
                                       double* row, double raw_ms) {
  const auto history = static_cast<std::uint32_t>(c.mp_history);
  double* const sorted = row;
  auto* const tags = reinterpret_cast<std::byte*>(row + history);
  std::uint32_t held = s.count;
  Tag tag = static_cast<Tag>(held);
  if (held == history) {
    // Evict the oldest sample — the one tagged `cursor` — and give its tag
    // to the newcomer.
    std::uint32_t out = 0;
    while (out < held && tag_at(tags, out) != s.cursor) ++out;
    NC_ASSERT(out < held);
    --held;
    std::copy(sorted + out + 1, sorted + held + 1, sorted + out);
    std::memmove(tags + out * sizeof(Tag), tags + (out + 1) * sizeof(Tag),
                 (held - out) * sizeof(Tag));
    tag = static_cast<Tag>(s.cursor);
    s.cursor = (s.cursor + 1) % history;
  }
  double* const end = sorted + held;
  double* const pos = std::upper_bound(sorted, end, raw_ms);
  const auto in = static_cast<std::size_t>(pos - sorted);
  std::copy_backward(pos, end, end + 1);
  std::memmove(tags + (in + 1) * sizeof(Tag), tags + in * sizeof(Tag),
               (held - in) * sizeof(Tag));
  *pos = raw_ms;
  std::memcpy(tags + in * sizeof(Tag), &tag, sizeof tag);
  s.count = held + 1;
  return estimate(c, s, row);
}

std::optional<double> MpKernel::estimate(const FilterConfig& c,
                                         const FilterState& s,
                                         const double* row) {
  if (static_cast<int>(s.count) < c.mp_min_samples) return std::nullopt;
  return stats::percentile_nearest_rank_sorted(
      std::span<const double>(row, s.count), c.mp_percentile);
}

FilterKernel::FilterKernel(const FilterConfig& config) : config_(config) {
  config_.validate();
}

}  // namespace nc
