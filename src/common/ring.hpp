// Generic bounded-retention ring over a single value type: the scalar
// sibling of imu::SampleRing (see its header for the full design notes).
//
// Values are addressed by an *absolute* index that never resets over the
// stream's lifetime; trim_to(b) drops everything below b by advancing a
// dead-prefix head, and the storage is compacted with one erase when the
// dead prefix outgrows the live region. Push is amortized O(1) and span
// views stay contiguous, which a wrap-around ring cannot offer.
//
// Invalidation: any push() or trim_to() may reallocate or slide the
// storage — treat spans as borrowed for the current hop only.

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace ptrack {

template <class T>
class Ring {
 public:
  void push(const T& v) { data_.push_back(v); }
  /// Appends n value-initialized values and returns them for writing: the
  /// push() of a whole block.
  std::span<T> extend(std::size_t n) {
    data_.resize(data_.size() + n);
    return {data_.data() + data_.size() - n, n};
  }

  /// Reserves storage for n values, dead prefix included: pushes stay
  /// allocation-free while the storage holds at most n.
  void reserve(std::size_t n) { data_.reserve(n); }

  /// Absolute index of the oldest retained value.
  [[nodiscard]] std::size_t base() const { return base_; }
  /// One past the absolute index of the newest value (== values pushed
  /// since construction; unaffected by trimming).
  [[nodiscard]] std::size_t end() const { return base_ + size(); }
  /// Retained value count.
  [[nodiscard]] std::size_t size() const { return data_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Drops values below absolute index `new_base` (clamped to
  /// [base(), end()]). Amortized O(1).
  void trim_to(std::size_t new_base) {
    new_base = std::clamp(new_base, base_, end());
    head_ += new_base - base_;
    base_ = new_base;
    if (head_ > 0 && head_ > size()) {
      data_.erase(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Borrowed view over the absolute range [b, e); requires
  /// base() <= b <= e <= end().
  [[nodiscard]] std::span<const T> span(std::size_t b, std::size_t e) const {
    PTRACK_CHECK_MSG(b <= e && b >= base_ && e <= end(),
                     "Ring: span inside the retained range");
    return {data_.data() + head_ + (b - base_), e - b};
  }

  [[nodiscard]] const T& operator[](std::size_t abs_index) const {
    PTRACK_CHECK_MSG(abs_index >= base_ && abs_index < end(),
                     "Ring: absolute index inside the retained range");
    return data_[head_ + (abs_index - base_)];
  }

  /// Mutable access for retained values (e.g. retroactive backfill of a
  /// pending tail). Finalized (trimmed-away) values are gone by definition.
  [[nodiscard]] T& at(std::size_t abs_index) {
    PTRACK_CHECK_MSG(abs_index >= base_ && abs_index < end(),
                     "Ring: absolute index inside the retained range");
    return data_[head_ + (abs_index - base_)];
  }

 private:
  std::vector<T> data_;
  std::size_t base_ = 0;  ///< absolute index of the value at head_
  std::size_t head_ = 0;  ///< dead-prefix length inside the vector
};

}  // namespace ptrack
