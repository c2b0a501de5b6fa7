#include "stats/energy.hpp"

#include "common/check.hpp"

namespace nc::stats {

namespace {

double pairwise_sum(std::span<const Vec> xs) {
  // Sum over unordered pairs, then doubled: matches the ordered-pair
  // double sums in the energy statistic.
  double s = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (std::size_t j = i + 1; j < xs.size(); ++j)
      s += xs[i].distance_to(xs[j]);
  return 2.0 * s;
}

double cross_sum(std::span<const Vec> a, std::span<const Vec> b) {
  double s = 0.0;
  for (const Vec& x : a)
    for (const Vec& y : b) s += x.distance_to(y);
  return s;
}

}  // namespace

double energy_distance(std::span<const Vec> a, std::span<const Vec> b) {
  NC_CHECK_MSG(!a.empty() && !b.empty(), "energy distance of empty sample");
  return energy_from_sums(cross_sum(a, b), pairwise_sum(a), pairwise_sum(b),
                          static_cast<double>(a.size()), static_cast<double>(b.size()));
}

}  // namespace nc::stats
