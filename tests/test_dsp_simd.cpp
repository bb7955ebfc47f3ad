// Scalar <-> vector bit-equality for the dsp::simd kernel layer.
//
// The dispatch contract (dsp/simd.hpp) promises that every kernel produces
// *identical* results on the scalar fallback and on the detected vector
// ISA — bit for bit, because reductions share one canonical lane-block
// order and elementwise maps replicate exact expression trees with FMA
// contraction disabled. These tests sweep odd lengths, unaligned offsets
// and empty/short inputs under force_isa(). On a machine (or a
// PTRACK_SIMD=OFF build) where detected() == kScalar they degenerate to
// scalar-vs-scalar and still pin the canonical results.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

using namespace ptrack;
namespace simd = ptrack::dsp::simd;

namespace {

/// Pins dispatch for one scope and always restores the detected ISA.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) { simd::force_isa(isa); }
  ~IsaGuard() { simd::force_isa(simd::detected()); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

/// Lengths hitting every tail case of the 4-wide blocks, plus
/// empty, sub-block and large inputs.
const std::array<std::size_t, 15> kLengths = {0,  1,  2,  3,   5,
                                              7,  8,  9,  15,  16,
                                              31, 64, 100, 1001, 2000};

/// Offsets exercising unaligned span starts (ring views land anywhere).
const std::array<std::size_t, 3> kOffsets = {0, 1, 3};

std::vector<double> rand_vec(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<double> out(n);
  for (auto& v : out) v = dist(rng);
  return out;
}

/// Runs `fn` under the scalar fallback and under the detected ISA and
/// returns both results for bit comparison.
template <typename Fn>
auto both_isas(Fn&& fn) {
  simd::force_isa(simd::Isa::kScalar);
  auto scalar = fn();
  simd::force_isa(simd::detected());
  auto vector = fn();
  return std::pair{scalar, vector};
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

void expect_moments_equal(const simd::Moments3& a, const simd::Moments3& b) {
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.xx, b.xx);
  EXPECT_EQ(a.xy, b.xy);
  EXPECT_EQ(a.xz, b.xz);
  EXPECT_EQ(a.yy, b.yy);
  EXPECT_EQ(a.yz, b.yz);
  EXPECT_EQ(a.zz, b.zz);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatch, ForceIsaClampsToDetected) {
  IsaGuard guard(simd::detected());
  simd::force_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  simd::force_isa(simd::detected());
  EXPECT_EQ(simd::active(), simd::detected());
  // Forcing an ISA the CPU (or build) lacks falls back to scalar instead of
  // dispatching into unsupported instructions.
  const simd::Isa foreign = simd::detected() == simd::Isa::kNeon
                                ? simd::Isa::kAvx2
                                : simd::Isa::kNeon;
  simd::force_isa(foreign);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kNeon), "neon");
}

TEST(SimdDispatch, WorkspaceScratchIsCacheLineAligned) {
  dsp::Workspace ws;
  const std::span<double> d = ws.real_scratch(333);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
}

// ---------------------------------------------------------------------------
// Reductions: bit-exact across ISAs, lengths and offsets.

TEST(SimdKernels, ReductionsBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec(n + off, 11);
      const auto ys = rand_vec(n + off, 12);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};
      const auto [d0, d1] = both_isas([&] { return simd::dot(x, y); });
      EXPECT_EQ(d0, d1) << "dot n=" << n << " off=" << off;
      const auto [q0, q1] =
          both_isas([&] { return simd::sumsq_dev(x, 0.25); });
      EXPECT_EQ(q0, q1) << "sumsq_dev n=" << n << " off=" << off;

      // The projection axis fits: weighted channel sums and raw-channel
      // moments.
      const auto zs = rand_vec(n + off, 13);
      const std::span<const double> z{zs.data() + off, n};
      const auto [w0, w1] =
          both_isas([&] { return simd::weighted_sum3(x, y, z, x); });
      EXPECT_EQ(w0, w1) << "weighted_sum3 n=" << n << " off=" << off;
      const Vec3 shift{0.5, -1.25, 2.0};
      const auto [m0, m1] =
          both_isas([&] { return simd::moments3(x, y, z, shift); });
      expect_moments_equal(m0, m1);
    }
  }
}

TEST(SimdKernels, EmptyReductionsAreZero) {
  IsaGuard guard(simd::detected());
  EXPECT_EQ(simd::dot({}, {}), 0.0);
  EXPECT_EQ(simd::sumsq_dev({}, 1.0), 0.0);
  EXPECT_EQ(simd::weighted_sum3({}, std::span<const double>{}, {}, {}),
            Vec3{});
  const simd::Moments3 m =
      simd::moments3(std::span<const double>{}, {}, {}, Vec3{1.0, 2.0, 3.0});
  EXPECT_EQ(m.sum, Vec3{});
  EXPECT_EQ(m.xx + m.xy + m.xz + m.yy + m.yz + m.zz, 0.0);
}

// ---------------------------------------------------------------------------
// Elementwise maps.

TEST(SimdKernels, ProjectionsBitExact) {
  IsaGuard guard(simd::detected());
  const Vec3 up = Vec3{0.3, -0.7, 0.648}.normalized();
  const Vec3 dir = Vec3{0.9, 0.1, -0.42}.normalized();
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec(n + off, 21);
      const auto ys = rand_vec(n + off, 22);
      const auto zs = rand_vec(n + off, 23);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};
      const std::span<const double> z{zs.data() + off, n};

      const auto [a0, a1] = both_isas([&] {
        std::vector<double> out(n);
        simd::axis_project(x, y, z, up, 9.81, out);
        return out;
      });
      expect_bits_equal(a0, a1);

      const auto [r0, r1] = both_isas([&] {
        std::vector<double> out(n);
        simd::residual_project(x, y, z, up, dir, out);
        return out;
      });
      expect_bits_equal(r0, r1);
    }
  }
}

TEST(SimdKernels, ElementwiseMapsBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec(n + off, 31);
      const auto ys = rand_vec(n + off, 32);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};

      const auto [n0, n1] = both_isas([&] {
        std::vector<double> out(n);
        simd::negate(x, out);
        return out;
      });
      expect_bits_equal(n0, n1);

      const auto [s0, s1] = both_isas([&] {
        std::vector<double> out(n);
        simd::sub_scalar(x, 0.7031, out);
        return out;
      });
      expect_bits_equal(s0, s1);

      const auto [d0, d1] = both_isas([&] {
        std::vector<double> out(n);
        simd::diff_div(x, y, 17.0, out);
        return out;
      });
      expect_bits_equal(d0, d1);
    }
  }
}

// ---------------------------------------------------------------------------
// Scans.

TEST(SimdKernels, ProminenceScansBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : kLengths) {
    const auto xs = rand_vec(n, 41);
    // Thresholds below, inside and above the data range: no breaker at all,
    // breakers at arbitrary block positions, immediate breaker.
    for (double h : {-10.0, -1.0, 0.0, 1.0, 10.0}) {
      const auto [f0, f1] =
          both_isas([&] { return simd::min_until_greater_fwd(xs, h); });
      EXPECT_EQ(f0, f1) << "fwd n=" << n << " h=" << h;
      const auto [b0, b1] =
          both_isas([&] { return simd::min_until_greater_bwd(xs, h); });
      EXPECT_EQ(b0, b1) << "bwd n=" << n << " h=" << h;
    }
  }
  // Empty input returns the threshold itself (prominence walk off an edge
  // peak: no minimum on that side).
  EXPECT_EQ(simd::min_until_greater_fwd({}, 2.5), 2.5);
  EXPECT_EQ(simd::min_until_greater_bwd({}, 2.5), 2.5);
}

TEST(SimdKernels, ScansExcludeSamplesPastTheBreaker) {
  IsaGuard guard(simd::detected());
  // A deep minimum *behind* the first sample greater than h must not leak
  // into the result — the walk stops at the breaker (inclusive).
  std::vector<double> xs{0.5, 0.2, 1.5, -9.0, 0.1};
  EXPECT_EQ(simd::min_until_greater_fwd(xs, 1.0), 0.2);
  std::vector<double> rev{0.1, -9.0, 1.5, 0.2, 0.5};
  EXPECT_EQ(simd::min_until_greater_bwd(rev, 1.0), 0.2);
}

TEST(SimdKernels, NormalizeLagsBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                        std::size_t{1001}}) {
    const auto raw = rand_vec(n, 51);
    const auto [a, b] = both_isas([&] {
      std::vector<double> out(n);
      simd::normalize_lags(raw, n, 0.37, out);
      return out;
    });
    expect_bits_equal(a, b);
    // Clamp contract: every normalized value lands in [-1, 1].
    for (double v : a) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Lane-parallel IIR.

TEST(SimdKernels, CascadeMultiBitExactAcrossIsas) {
  IsaGuard guard(simd::detected());
  const auto cascade = dsp::butterworth_lowpass(4, 5.0, 100.0);
  std::vector<dsp::BiquadCoeffs> sections;
  for (const auto& s : cascade.sections()) sections.push_back(s.coeffs());
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{333}, std::size_t{2000}}) {
    for (bool backward : {false, true}) {
      const auto seed_data = rand_vec(n * simd::kIirLanes, 61);
      const auto [a, b] = both_isas([&] {
        std::vector<double> data = seed_data;
        simd::cascade_multi(sections, data.data(), n, backward);
        return data;
      });
      expect_bits_equal(a, b);
    }
  }
}

TEST(SimdKernels, CascadeMultiLaneMatchesSingleChannelBiquad) {
  IsaGuard guard(simd::detected());
  // Each interleaved lane must be bit-identical to BiquadCascade::step run
  // over that channel alone (the header's per-lane contract).
  const auto proto = dsp::butterworth_lowpass(4, 5.0, 100.0);
  std::vector<dsp::BiquadCoeffs> sections;
  for (const auto& s : proto.sections()) sections.push_back(s.coeffs());
  const std::size_t n = 257;
  std::vector<std::vector<double>> chans;
  for (std::size_t c = 0; c < simd::kIirLanes; ++c) {
    chans.push_back(rand_vec(n, static_cast<std::uint32_t>(70 + c)));
  }
  std::vector<double> data(n * simd::kIirLanes);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < simd::kIirLanes; ++c) {
      data[i * simd::kIirLanes + c] = chans[c][i];
    }
  }
  simd::cascade_multi(sections, data.data(), n, /*backward=*/false);
  for (std::size_t c = 0; c < simd::kIirLanes; ++c) {
    dsp::BiquadCascade ref = proto;
    ref.reset();
    for (std::size_t i = 0; i < n; ++i) {
      const double want = ref.step(chans[c][i]);
      EXPECT_EQ(data[i * simd::kIirLanes + c], want)
          << "lane " << c << " sample " << i;
    }
  }
}

namespace {

/// A run of n rows in one call equals the same run split at k with the
/// state carried between the calls, bit for bit, and both report the same
/// final state.
void expect_split_run_bit_exact(std::span<const dsp::BiquadCoeffs> sections,
                                std::size_t n, std::size_t k, bool backward) {
  const auto seed_data = rand_vec(n * simd::kIirLanes, 63);
  const std::size_t state_size = simd::cascade_state_size(sections.size());
  std::vector<double> whole = seed_data;
  std::vector<double> whole_state(state_size, 0.0);
  simd::cascade_multi(sections, whole.data(), n, backward, whole_state.data());
  // A zero state in is a null state.
  std::vector<double> stateless = seed_data;
  simd::cascade_multi(sections, stateless.data(), n, backward);
  expect_bits_equal(whole, stateless);

  std::vector<double> split = seed_data;
  std::vector<double> state(state_size, 0.0);
  // Rows [0, k) and [k, n); a backward run visits the second block first.
  double* lo = split.data();
  double* hi = split.data() + k * simd::kIirLanes;
  if (backward) {
    simd::cascade_multi(sections, hi, n - k, backward, state.data());
    simd::cascade_multi(sections, lo, k, backward, state.data());
  } else {
    simd::cascade_multi(sections, lo, k, backward, state.data());
    simd::cascade_multi(sections, hi, n - k, backward, state.data());
  }
  expect_bits_equal(whole, split);
  expect_bits_equal(whole_state, state);
}

}  // namespace

TEST(SimdKernels, CascadeMultiCarriedStateSplitsBitExact) {
  IsaGuard guard(simd::detected());
  // Orders 2, 4, 8 and 10: one, two and four sections run the unrolled
  // vector lanes, five the canonical fallback.
  for (const int order : {2, 4, 8, 10}) {
    const auto cascade = dsp::butterworth_lowpass(order, 5.0, 100.0);
    std::vector<dsp::BiquadCoeffs> sections;
    for (const auto& s : cascade.sections()) sections.push_back(s.coeffs());
    for (const simd::Isa isa : {simd::Isa::kScalar, simd::detected()}) {
      simd::force_isa(isa);
      for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                  std::size_t{414}}) {
        for (const std::size_t k : {std::size_t{0}, n / 2, n}) {
          for (const bool backward : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "order " << order << " isa "
                         << simd::isa_name(isa) << " n " << n << " k " << k
                         << " backward " << backward);
            expect_split_run_bit_exact(sections, n, k, backward);
          }
        }
      }
    }
  }
  // The carried state itself is ISA-independent.
  const auto cascade = dsp::butterworth_lowpass(4, 5.0, 100.0);
  std::vector<dsp::BiquadCoeffs> sections;
  for (const auto& s : cascade.sections()) sections.push_back(s.coeffs());
  const auto seed_data = rand_vec(300 * simd::kIirLanes, 64);
  const auto [a, b] = both_isas([&] {
    std::vector<double> data = seed_data;
    std::vector<double> state(simd::cascade_state_size(sections.size()), 0.5);
    simd::cascade_multi(sections, data.data(), 300, false, state.data());
    data.insert(data.end(), state.begin(), state.end());
    return data;
  });
  expect_bits_equal(a, b);
}

// ---------------------------------------------------------------------------
// Composite: the batched filtfilt entry points.

TEST(SimdComposite, FiltfiltMultiMatchesSingleChannel) {
  IsaGuard guard(simd::detected());
  // filtfilt_multi_into promises bit-identity with per-channel
  // filtfilt_into; that makes the projection stage's batched filters safe
  // to swap in without perturbing the double pipeline.
  const auto cascade = dsp::butterworth_lowpass(4, 5.0, 100.0);
  dsp::Workspace ws_multi;
  dsp::Workspace ws_single;
  for (std::size_t n : {std::size_t{16}, std::size_t{129}, std::size_t{750}}) {
    const auto a = rand_vec(n, 81);
    const auto b = rand_vec(n, 82);
    std::vector<double> out_a(n);
    std::vector<double> out_b(n);
    const std::array<std::span<const double>, 2> xs{
        std::span<const double>(a), std::span<const double>(b)};
    const std::array<std::span<double>, 2> outs{std::span<double>(out_a),
                                                std::span<double>(out_b)};
    dsp::filtfilt_multi_into(cascade, xs, 64, ws_multi, outs);

    std::vector<double> ref_a(n);
    std::vector<double> ref_b(n);
    dsp::filtfilt_into(cascade, a, 64, ws_single, ref_a);
    dsp::filtfilt_into(cascade, b, 64, ws_single, ref_b);
    expect_bits_equal(out_a, ref_a);
    expect_bits_equal(out_b, ref_b);
  }
}
