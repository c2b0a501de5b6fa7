// Fixed-capacity FIFO of coordinate points, the storage of every heuristic
// window (paper Sec. V).
//
// A window holds at most k points of d doubles each (d = the coordinate's
// dimension, plus one with a height). PointRing keeps them back to back in
// one flat buffer of capacity * d doubles, allocated when the first point
// arrives, since d is only known then. After that, a push copies d doubles
// and a pop moves the head index: the window never allocates again, and a
// 3-D window of 33 points is 792 contiguous bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "common/check.hpp"
#include "common/vec.hpp"

namespace nc {

class PointRing {
 public:
  explicit PointRing(int capacity) : capacity_(capacity) {
    NC_CHECK_MSG(capacity >= 1, "window must be >= 1");
  }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  /// Components per point; 0 until the first push (and after release()).
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// Point i, oldest first (i < size()).
  [[nodiscard]] const double* operator[](int i) const noexcept {
    NC_ASSERT(i >= 0 && i < size_);
    int slot = head_ + i;
    if (slot >= capacity_) slot -= capacity_;
    return data_.get() + static_cast<std::ptrdiff_t>(slot) * dim_;
  }

  /// Appends a point of `dim` components; requires !full(). The first point
  /// sizes the buffer, and every later one must have the same dimension.
  void push_back(const double* p, int dim) {
    if (dim != dim_) size_for(dim);
    NC_ASSERT(size_ < capacity_);
    int slot = head_ + size_;
    if (slot >= capacity_) slot -= capacity_;
    std::copy_n(p, dim, data_.get() + static_cast<std::ptrdiff_t>(slot) * dim_);
    ++size_;
  }
  void push_back(const Vec& v) { push_back(v.data(), v.dim()); }

  /// Drops the oldest point. Its storage stays intact until the next push.
  void pop_front() noexcept {
    NC_ASSERT(size_ > 0);
    if (++head_ == capacity_) head_ = 0;
    --size_;
  }

  /// Empties the window and keeps the buffer; the next pushes fill it from
  /// the first slot, so the first size() points are contiguous until a pop.
  void clear() noexcept { head_ = size_ = 0; }

  /// Empties the window and frees the buffer; the next push sizes it anew.
  void release() noexcept {
    data_.reset();
    dim_ = head_ = size_ = 0;
  }

  /// Heap bytes of the buffer.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_ ? static_cast<std::size_t>(capacity_) *
                       static_cast<std::size_t>(dim_) * sizeof(double)
                 : 0;
  }

 private:
  void size_for(int dim) {
    NC_CHECK_MSG(dim_ == 0, "dimension mismatch");
    NC_CHECK_MSG(dim >= 1 && dim <= kMaxDim, "window point dimension out of range");
    data_ = std::make_unique<double[]>(static_cast<std::size_t>(capacity_) *
                                       static_cast<std::size_t>(dim));
    dim_ = dim;
  }

  std::unique_ptr<double[]> data_;
  int capacity_;
  int dim_ = 0;
  int head_ = 0;  // slot of the oldest point
  int size_ = 0;
};

}  // namespace nc
