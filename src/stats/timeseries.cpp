#include "stats/timeseries.hpp"

#include <cmath>

#include "common/check.hpp"
#include "stats/percentile.hpp"

namespace nc::stats {

namespace {
std::int64_t bucket_of(double t, double width) {
  return static_cast<std::int64_t>(std::floor(t / width));
}
}  // namespace

BucketedSum::BucketedSum(double bucket_width) : width_(bucket_width) {
  NC_CHECK_MSG(bucket_width > 0.0, "bucket width must be positive");
}

void BucketedSum::add(double t, double v) {
  Cell& c = buckets_[bucket_of(t, width_)];
  c.sum += v;
  ++c.count;
}

std::vector<SeriesPoint> BucketedSum::sums() const {
  std::vector<SeriesPoint> out;
  out.reserve(buckets_.size());
  for (const auto& [b, cell] : buckets_)
    out.push_back({static_cast<double>(b) * width_, cell.sum});
  return out;
}

std::vector<SeriesPoint> BucketedSum::means() const {
  std::vector<SeriesPoint> out;
  out.reserve(buckets_.size());
  for (const auto& [b, cell] : buckets_)
    out.push_back({static_cast<double>(b) * width_,
                   cell.count ? cell.sum / static_cast<double>(cell.count) : 0.0});
  return out;
}

BucketedValues::BucketedValues(double bucket_width) : width_(bucket_width) {
  NC_CHECK_MSG(bucket_width > 0.0, "bucket width must be positive");
}

void BucketedValues::add(double t, double v) {
  buckets_[bucket_of(t, width_)].push_back(v);
}

std::size_t BucketedValues::memory_bytes() const noexcept {
  // A red-black tree node carries three links and a color word beside the
  // stored pair.
  constexpr std::size_t kNodeBytes =
      4 * sizeof(void*) + sizeof(decltype(buckets_)::value_type);
  std::size_t bytes = buckets_.size() * kNodeBytes;
  for (const auto& [b, vs] : buckets_) bytes += vs.capacity() * sizeof(double);
  return bytes;
}

void BucketedValues::merge(const BucketedValues& other) {
  NC_CHECK_MSG(width_ == other.width_, "bucket width mismatch");
  for (const auto& [b, vs] : other.buckets_) {
    auto& mine = buckets_[b];
    mine.insert(mine.end(), vs.begin(), vs.end());
  }
}

std::vector<SeriesPoint> BucketedValues::medians() const { return quantiles(0.5); }

std::vector<SeriesPoint> BucketedValues::means() const {
  std::vector<SeriesPoint> out;
  out.reserve(buckets_.size());
  for (const auto& [b, vs] : buckets_) {
    double s = 0.0;
    for (double v : vs) s += v;
    out.push_back({static_cast<double>(b) * width_,
                   vs.empty() ? 0.0 : s / static_cast<double>(vs.size())});
  }
  return out;
}

std::vector<SeriesPoint> BucketedValues::quantiles(double q) const {
  std::vector<SeriesPoint> out;
  out.reserve(buckets_.size());
  for (const auto& [b, vs] : buckets_)
    out.push_back({static_cast<double>(b) * width_, percentile(vs, q * 100.0)});
  return out;
}

}  // namespace nc::stats
