#include "imu/sample_ring.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"

namespace ptrack::imu {

// ptrack-lint: push-allow(alloc) amortized channel growth; the dead prefix
// is compacted by trim_to, so capacity plateaus at the retention window
void SampleRing::push(const Sample& s, std::uint8_t flags) {
  ax_.push_back(s.accel.x);
  ay_.push_back(s.accel.y);
  az_.push_back(s.accel.z);
  flags_.push_back(flags);
}
// ptrack-lint: pop-allow(alloc)

void SampleRing::trim_to(std::size_t new_base) {
  new_base = std::clamp(new_base, base_, end());
  head_ += new_base - base_;
  base_ = new_base;
  maybe_compact();
}

void SampleRing::maybe_compact() {
  if (head_ == 0 || head_ <= size()) return;
  const auto erase_prefix = [this](auto& v) {
    v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head_));
  };
  erase_prefix(ax_);
  erase_prefix(ay_);
  erase_prefix(az_);
  erase_prefix(flags_);
  head_ = 0;
  ++compactions_;
}

namespace {
std::span<const double> sub(const std::vector<double>& v, std::size_t o,
                            std::size_t len) {
  return {v.data() + o, len};
}
}  // namespace

std::size_t SampleRing::span_offset(std::size_t b, std::size_t e) const {
  expects(b <= e, "SampleRing: span begin <= end");
  PTRACK_CHECK_MSG(b >= base_ && e <= end(),
                   "SampleRing: span inside the retained range");
  return head_ + (b - base_);
}

std::span<const double> SampleRing::ax(std::size_t b, std::size_t e) const {
  return sub(ax_, span_offset(b, e), e - b);
}
std::span<const double> SampleRing::ay(std::size_t b, std::size_t e) const {
  return sub(ay_, span_offset(b, e), e - b);
}
std::span<const double> SampleRing::az(std::size_t b, std::size_t e) const {
  return sub(az_, span_offset(b, e), e - b);
}
std::span<const std::uint8_t> SampleRing::flags(std::size_t b,
                                                std::size_t e) const {
  return {flags_.data() + span_offset(b, e), e - b};
}

std::size_t SampleRing::count_flagged(std::size_t b, std::size_t e,
                                      std::uint8_t mask) const {
  e = std::min(e, end());
  b = std::max(b, base_);
  if (b >= e) return 0;
  std::size_t hits = 0;
  for (std::uint8_t f : flags(b, e)) {
    if (f & mask) ++hits;
  }
  return hits;
}

double SampleRing::fraction_flagged(std::size_t b, std::size_t e,
                                    std::uint8_t mask) const {
  e = std::min(e, end());
  b = std::max(b, base_);
  if (b >= e) return 0.0;
  return static_cast<double>(count_flagged(b, e, mask)) /
         static_cast<double>(e - b);
}

}  // namespace ptrack::imu
