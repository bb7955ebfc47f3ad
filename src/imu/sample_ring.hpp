// Contiguous structure-of-arrays ring buffer over an IMU stream: the
// zero-copy backbone of the incremental pipeline.
//
// Samples live in three parallel `std::vector<double>` accelerometer
// channels (ax, ay, az) plus one quality-flag byte per sample, addressed by
// an *absolute* sample index that never resets over the stream's lifetime.
// The gyroscope rates are not kept: the quality layer sees them before the
// ring, and nothing downstream of it reads them. Consumers ask for
// `std::span` views over [begin, end) absolute ranges and hand them
// straight to the dsp kernels — no per-hop materialization of
// `imu::Sample` vectors, no AoS->SoA shuffling in the hot path.
//
// "Ring" here means bounded retention, not a wrap-around index scheme:
// trim_to(b) logically drops everything below absolute index b by moving
// the live head forward; when the dead prefix grows past the live size the
// vectors are compacted with one memmove. Push is amortized O(1), spans
// stay contiguous (which wrap-around storage cannot offer), and memory is
// bounded by the retention window the caller maintains.
//
// Invalidation: any push() or trim_to() may reallocate or slide the
// channel storage — treat spans as borrowed for the current hop only.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "imu/sample.hpp"

namespace ptrack::imu {

class SampleRing {
 public:
  /// Appends one sample's accelerometer channels with its quality flags
  /// (SampleFlag bits).
  void push(const Sample& s, std::uint8_t flags);

  /// Absolute index of the oldest retained sample.
  [[nodiscard]] std::size_t base() const { return base_; }
  /// One past the absolute index of the newest sample (== samples pushed
  /// since construction; unaffected by trimming).
  [[nodiscard]] std::size_t end() const { return base_ + size(); }
  /// Retained sample count.
  [[nodiscard]] std::size_t size() const { return ax_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Drops samples below absolute index `new_base` (clamped to
  /// [base(), end()]). Amortized O(1): compaction runs only when the dead
  /// prefix exceeds the live region.
  void trim_to(std::size_t new_base);

  /// Span views over the absolute range [begin, end); requires
  /// base() <= begin <= end <= this->end(). Borrowed until the next
  /// push/trim.
  [[nodiscard]] std::span<const double> ax(std::size_t b, std::size_t e) const;
  [[nodiscard]] std::span<const double> ay(std::size_t b, std::size_t e) const;
  [[nodiscard]] std::span<const double> az(std::size_t b, std::size_t e) const;
  [[nodiscard]] std::span<const std::uint8_t> flags(std::size_t b,
                                                    std::size_t e) const;

  /// Samples in [begin, end) whose flags intersect `mask`.
  [[nodiscard]] std::size_t count_flagged(std::size_t b, std::size_t e,
                                          std::uint8_t mask) const;
  /// Fraction of samples in [begin, end) whose flags intersect `mask`
  /// (0 for empty ranges).
  [[nodiscard]] double fraction_flagged(std::size_t b, std::size_t e,
                                        std::uint8_t mask) const;

  /// Times the dead prefix was compacted away (telemetry).
  [[nodiscard]] std::size_t compactions() const { return compactions_; }

 private:
  /// Validates [b, e) against the retained range; returns b's storage
  /// offset.
  [[nodiscard]] std::size_t span_offset(std::size_t b, std::size_t e) const;
  void maybe_compact();

  std::vector<double> ax_, ay_, az_;
  std::vector<std::uint8_t> flags_;
  std::size_t base_ = 0;  ///< absolute index of the sample at head_
  std::size_t head_ = 0;  ///< dead-prefix length inside the vectors
  std::size_t compactions_ = 0;
};

}  // namespace ptrack::imu
