// Small fixed-capacity Euclidean vector used for network coordinates.
//
// Coordinates are low-dimensional (the paper uses 3-D; Vivaldi deployments
// use 2-5 dimensions), so Vec stores its components inline in a fixed
// std::array with a runtime dimension. This keeps coordinate math
// allocation-free on the simulator hot path.
#pragma once

#include <array>
#include <cmath>
#include <initializer_list>
#include <iosfwd>

#include "common/check.hpp"

namespace nc {

/// Maximum supported coordinate dimension (inline storage bound).
inline constexpr int kMaxDim = 8;

/// Euclidean distance between two points of `dim` components stored as raw
/// arrays. Vec::distance_to and the heuristics' flat coordinate windows both
/// call it, so every distance is computed by the same operations.
[[nodiscard]] inline double point_distance(const double* a, const double* b,
                                           int dim) noexcept {
  double s = 0.0;
  for (int i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

/// A dense Euclidean vector of runtime dimension `dim() <= kMaxDim`.
///
/// Value type: cheap to copy (Core Guidelines F.16), all operations are
/// noexcept apart from dimension checks. Mixed-dimension arithmetic is a
/// caller bug and trips NC_CHECK.
class Vec {
 public:
  /// Zero-dimensional vector; useful only as a placeholder before assignment.
  constexpr Vec() noexcept : dim_(0), v_{} {}

  /// Zero vector of dimension `dim`.
  explicit Vec(int dim) : dim_(dim), v_{} {
    NC_CHECK_MSG(dim >= 0 && dim <= kMaxDim, "vector dimension out of range");
  }

  /// Vector with explicit components, e.g. Vec{1.0, 2.0, 3.0}.
  Vec(std::initializer_list<double> xs) : dim_(static_cast<int>(xs.size())), v_{} {
    NC_CHECK_MSG(dim_ <= kMaxDim, "too many components");
    int i = 0;
    for (double x : xs) v_[static_cast<std::size_t>(i++)] = x;
  }

  [[nodiscard]] static Vec zero(int dim) { return Vec(dim); }

  [[nodiscard]] constexpr int dim() const noexcept { return dim_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return dim_ == 0; }
  /// The `dim()` components, contiguous.
  [[nodiscard]] const double* data() const noexcept { return v_.data(); }

  [[nodiscard]] double operator[](int i) const noexcept {
    NC_ASSERT(i >= 0 && i < dim_);
    return v_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] double& operator[](int i) noexcept {
    NC_ASSERT(i >= 0 && i < dim_);
    return v_[static_cast<std::size_t>(i)];
  }

  Vec& operator+=(const Vec& o) {
    check_same_dim(o);
    for (int i = 0; i < dim_; ++i) v_[static_cast<std::size_t>(i)] += o[i];
    return *this;
  }
  Vec& operator-=(const Vec& o) {
    check_same_dim(o);
    for (int i = 0; i < dim_; ++i) v_[static_cast<std::size_t>(i)] -= o[i];
    return *this;
  }
  Vec& operator*=(double s) noexcept {
    for (int i = 0; i < dim_; ++i) v_[static_cast<std::size_t>(i)] *= s;
    return *this;
  }
  Vec& operator/=(double s) {
    NC_CHECK_MSG(s != 0.0, "division by zero");
    return *this *= (1.0 / s);
  }

  [[nodiscard]] friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  [[nodiscard]] friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  [[nodiscard]] friend Vec operator*(Vec a, double s) noexcept { return a *= s; }
  [[nodiscard]] friend Vec operator*(double s, Vec a) noexcept { return a *= s; }
  [[nodiscard]] friend Vec operator/(Vec a, double s) { return a /= s; }
  [[nodiscard]] friend Vec operator-(Vec a) noexcept { return a *= -1.0; }

  [[nodiscard]] friend bool operator==(const Vec& a, const Vec& b) noexcept {
    if (a.dim_ != b.dim_) return false;
    for (int i = 0; i < a.dim_; ++i)
      if (a[i] != b[i]) return false;
    return true;
  }

  [[nodiscard]] double dot(const Vec& o) const {
    check_same_dim(o);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) s += (*this)[i] * o[i];
    return s;
  }

  [[nodiscard]] double norm_squared() const noexcept {
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) s += (*this)[i] * (*this)[i];
    return s;
  }

  [[nodiscard]] double norm() const noexcept { return std::sqrt(norm_squared()); }

  /// Euclidean distance to `o`.
  [[nodiscard]] double distance_to(const Vec& o) const {
    check_same_dim(o);
    return point_distance(data(), o.data(), dim_);
  }

  /// Unit vector in this direction; the zero vector maps to itself so that
  /// callers can treat "no preferred direction" explicitly.
  [[nodiscard]] Vec unit() const noexcept {
    const double n = norm();
    if (n == 0.0) return *this;
    Vec u = *this;
    u *= 1.0 / n;
    return u;
  }

  [[nodiscard]] bool all_finite() const noexcept {
    for (int i = 0; i < dim_; ++i)
      if (!std::isfinite((*this)[i])) return false;
    return true;
  }

 private:
  void check_same_dim(const Vec& o) const {
    NC_CHECK_MSG(dim_ == o.dim_, "dimension mismatch");
  }

  int dim_;
  std::array<double, kMaxDim> v_;
};

std::ostream& operator<<(std::ostream& os, const Vec& v);

}  // namespace nc
