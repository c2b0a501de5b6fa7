#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace nc {

double Rng::normal() noexcept {
  if (!std::isnan(cached_normal_)) {
    const double cached = cached_normal_;
    cached_normal_ = kNoCachedNormal;
    return cached;
  }
  // Box-Muller on (0,1] uniforms so log() never sees zero.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  return r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * normal());
}

double Rng::exponential(double rate) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

Vec Rng::unit_vector(int dim) noexcept {
  // Normalized vector of i.i.d. normals is uniform on the sphere.
  Vec v(dim);
  double n2 = 0.0;
  do {
    for (int i = 0; i < dim; ++i) v[i] = normal();
    n2 = v.norm_squared();
  } while (n2 == 0.0);
  v *= 1.0 / std::sqrt(n2);
  return v;
}

}  // namespace nc
