// Fixed-width time-bucket aggregation for metric time series.
//
// Instability is defined per unit time (sum of coordinate displacement per
// second); Fig. 14 reports 10-minute medians. These helpers bucket (t, v)
// pairs by floor(t / width).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace nc::stats {

struct SeriesPoint {
  double t = 0.0;  // bucket start time
  double value = 0.0;
};

/// Accumulates sums (and counts) per time bucket. O(1) memory per bucket.
class BucketedSum {
 public:
  explicit BucketedSum(double bucket_width);

  void add(double t, double v);

  /// Bucket sums in time order. Buckets with no samples are absent.
  [[nodiscard]] std::vector<SeriesPoint> sums() const;
  /// Bucket means in time order.
  [[nodiscard]] std::vector<SeriesPoint> means() const;

  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

 private:
  struct Cell {
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  double width_;
  std::map<std::int64_t, Cell> buckets_;
};

/// Stores every value per bucket so that medians/percentiles can be taken.
class BucketedValues {
 public:
  explicit BucketedValues(double bucket_width);

  void add(double t, double v);

  /// Absorbs another collection with the same bucket width. Bucket contents
  /// are concatenated; medians/quantiles sort per bucket, so those queries
  /// are independent of merge order (means() sums in stored order and may
  /// differ in the last ulp across orders).
  void merge(const BucketedValues& other);

  [[nodiscard]] std::vector<SeriesPoint> medians() const;
  [[nodiscard]] std::vector<SeriesPoint> means() const;
  [[nodiscard]] std::vector<SeriesPoint> quantiles(double q) const;

  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Heap bytes held: one map node per bucket plus its values' capacity.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  double width_;
  std::map<std::int64_t, std::vector<double>> buckets_;
};

}  // namespace nc::stats
