// Per-link latency filters: one kernel per filter kind over a fixed-stride
// row.
//
// A deployment does not observe one latency per link; it observes a stream
// whose samples vary by orders of magnitude (paper Sec. III). A filter turns
// that raw stream into the estimate fed to Vivaldi. update() may return
// nullopt to signal "no usable estimate yet" — either because the filter is
// not primed (MP filter with min_samples, guarding the first-sample pathology
// of Sec. VI) or because the sample was rejected (threshold filter).
//
// A link's filter state is a ROW: a FilterState (samples held, the MP
// window's oldest arrival tag) plus FilterKernel::row_doubles() doubles
// whose layout belongs to the kind's kernel. Kernels hold no state of their
// own — every call names the row it works on — so NCClient keeps one row
// per tracked link inline in its slab (no per-link object, no allocation
// per first contact), while LatencyFilter and the named classes in
// core/filters/ own exactly one row for standalone use (figure benches,
// tests). Both drive the same kernel, so each filter kind has one
// implementation. A zeroed FilterState is an empty filter: that is what
// reset() and a freshly claimed slab row start from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/filters/filter_config.hpp"

namespace nc {

/// Per-row bookkeeping shared by every kind: `count` is the samples the row
/// holds (0 = unprimed; single-value kinds keep it at most 1), `cursor` the
/// arrival tag of the MP window's oldest sample once the window is full.
struct FilterState {
  std::uint32_t count = 0;
  std::uint32_t cursor = 0;
};

/// Estimate of the kinds whose row is one value: that value once primed.
struct SingleValueKernel {
  static std::optional<double> estimate(const FilterState& s,
                                        const double* row) noexcept {
    if (s.count == 0) return std::nullopt;
    return row[0];
  }
};

/// "No Filter": raw samples pass straight through. Row: {last sample}.
struct IdentityKernel : SingleValueKernel {
  static std::optional<double> update(FilterState& s, double* row,
                                      double raw_ms) noexcept {
    row[0] = raw_ms;
    s.count = 1;
    return raw_ms;
  }
};

/// Moving percentile (paper Sec. IV): the p-th percentile (nearest rank) of
/// the last h samples. Row: the h samples ascending, then one 16-bit
/// arrival tag per sample — the slot it would hold in an h-sample ring, so
/// the oldest sample of a full window is the one tagged `cursor`. An update
/// scans the tags for the outgoing sample, then binary-searches the
/// incoming one in, shifting both arrays: O(h) and no copy of the window,
/// where h runs up to 128 in the history sweeps (fig04, ablation_mp_grid).
/// At MP(4, 25) the row is 40 bytes, against 64 for a ring plus a sorted
/// copy. The tags sit behind the doubles as raw bytes, read and written by
/// memcpy only.
struct MpKernel {
  using Tag = std::uint16_t;
  /// Doubles of an h-sample row: the samples, then the tags rounded up.
  [[nodiscard]] static constexpr std::size_t row_doubles(std::size_t h) noexcept {
    return h + (h * sizeof(Tag) + sizeof(double) - 1) / sizeof(double);
  }
  static std::optional<double> update(const FilterConfig& c, FilterState& s,
                                      double* row, double raw_ms);
  static std::optional<double> estimate(const FilterConfig& c,
                                        const FilterState& s, const double* row);
};

/// Exponentially weighted moving average. Row: {current average}.
struct EwmaKernel : SingleValueKernel {
  static std::optional<double> update(const FilterConfig& c, FilterState& s,
                                      double* row, double raw_ms) noexcept {
    if (s.count == 0) {
      row[0] = raw_ms;
      s.count = 1;
    } else {
      row[0] = c.ewma_alpha * raw_ms + (1.0 - c.ewma_alpha) * row[0];
    }
    return row[0];
  }
};

/// Fixed cutoff: samples above it are rejected. Row: {last accepted sample}.
struct ThresholdKernel : SingleValueKernel {
  static std::optional<double> update(const FilterConfig& c, FilterState& s,
                                      double* row, double raw_ms) noexcept {
    if (raw_ms > c.threshold_ms) return std::nullopt;
    row[0] = raw_ms;
    s.count = 1;
    return raw_ms;
  }
};

/// The kernel a FilterConfig selects, validated once at construction
/// (FilterConfig::validate). Holds parameters only; every call takes the row
/// it works on.
class FilterKernel {
 public:
  explicit FilterKernel(const FilterConfig& config);

  /// Doubles one row holds after its FilterState.
  [[nodiscard]] std::size_t row_doubles() const noexcept {
    return config_.kind == FilterKind::kMovingPercentile
               ? MpKernel::row_doubles(static_cast<std::size_t>(config_.mp_history))
               : 1;
  }

  /// Feeds one raw observation (ms) to the row; returns the filtered
  /// estimate, if any.
  std::optional<double> update(FilterState& s, double* row,
                               double raw_ms) const {
    switch (config_.kind) {
      case FilterKind::kIdentity:
        return IdentityKernel::update(s, row, raw_ms);
      case FilterKind::kMovingPercentile:
        return MpKernel::update(config_, s, row, raw_ms);
      case FilterKind::kEwma:
        return EwmaKernel::update(config_, s, row, raw_ms);
      case FilterKind::kThreshold:
        return ThresholdKernel::update(config_, s, row, raw_ms);
    }
    return std::nullopt;
  }

  /// The row's current estimate, without feeding an observation.
  [[nodiscard]] std::optional<double> estimate(const FilterState& s,
                                               const double* row) const {
    switch (config_.kind) {
      case FilterKind::kIdentity:
        return IdentityKernel::estimate(s, row);
      case FilterKind::kMovingPercentile:
        return MpKernel::estimate(config_, s, row);
      case FilterKind::kEwma:
        return EwmaKernel::estimate(s, row);
      case FilterKind::kThreshold:
        return ThresholdKernel::estimate(s, row);
    }
    return std::nullopt;
  }

  [[nodiscard]] const FilterConfig& config() const noexcept { return config_; }

 private:
  FilterConfig config_;
};

/// A standalone filter: one kernel and the one row it drives.
class LatencyFilter {
 public:
  explicit LatencyFilter(const FilterConfig& config)
      : kernel_(config), row_(kernel_.row_doubles()) {}

  /// Feeds one raw observation (ms); returns the filtered estimate, if any.
  std::optional<double> update(double raw_ms) {
    return kernel_.update(state_, row_.data(), raw_ms);
  }

  /// Current estimate without feeding a new observation.
  [[nodiscard]] std::optional<double> estimate() const {
    return kernel_.estimate(state_, row_.data());
  }

  /// Forgets all history.
  void reset() noexcept { state_ = FilterState{}; }

  [[nodiscard]] const FilterConfig& config() const noexcept {
    return kernel_.config();
  }
  /// Samples the row holds (the MP window fill; at most 1 for other kinds).
  [[nodiscard]] int size() const noexcept { return static_cast<int>(state_.count); }

 private:
  FilterKernel kernel_;
  FilterState state_;
  std::vector<double> row_;
};

}  // namespace nc
