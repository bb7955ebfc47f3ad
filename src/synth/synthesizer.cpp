#include "synth/synthesizer.hpp"

#include <cmath>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/mat3.hpp"
#include "dsp/moving.hpp"
#include "dsp/resample.hpp"
#include "synth/gait_generator.hpp"
#include "synth/interference.hpp"

namespace ptrack::synth {

namespace {

/// Largest roll/pitch (rad) of the random device mount.
constexpr double kMaxMountTilt = 0.45;

/// Central-difference second derivative of a position path.
std::vector<Vec3> second_derivative(const std::vector<Vec3>& pos, double fs) {
  const std::size_t n = pos.size();
  std::vector<Vec3> acc(n);
  if (n < 3) return acc;
  const double f2 = fs * fs;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    acc[i] = (pos[i + 1] - 2.0 * pos[i] + pos[i - 1]) * f2;
  }
  acc[0] = acc[1];
  acc[n - 1] = acc[n - 2];
  return acc;
}

std::vector<double> axis_of(const std::vector<Vec3>& v, int axis) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = axis == 0 ? v[i].x : axis == 1 ? v[i].y : v[i].z;
  }
  return out;
}

std::vector<Vec3> from_axes(const std::vector<double>& x,
                            const std::vector<double>& y,
                            const std::vector<double>& z) {
  std::vector<Vec3> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = {x[i], y[i], z[i]};
  return out;
}

/// Moving average with linear-extrapolation padding: the plain filter's
/// shrinking edge windows put a slope discontinuity at both ends of a
/// moving path, which differentiates into a large phantom acceleration.
std::vector<double> padded_average(const std::vector<double>& xs,
                                   std::size_t w) {
  if (xs.size() < 2 * w + 2) return dsp::moving_average(xs, w);
  std::vector<double> padded;
  padded.reserve(xs.size() + 2 * w);
  const double slope_front = xs[1] - xs[0];
  for (std::size_t i = w; i >= 1; --i) {
    padded.push_back(xs[0] - slope_front * static_cast<double>(i));
  }
  padded.insert(padded.end(), xs.begin(), xs.end());
  const double slope_back = xs[xs.size() - 1] - xs[xs.size() - 2];
  for (std::size_t i = 1; i <= w; ++i) {
    padded.push_back(xs.back() + slope_back * static_cast<double>(i));
  }
  const auto smoothed = dsp::moving_average(padded, w);
  return {smoothed.begin() + static_cast<std::ptrdiff_t>(w),
          smoothed.begin() + static_cast<std::ptrdiff_t>(w + xs.size())};
}

/// Smooths each axis with a short moving average (~35 ms) to soften the
/// jerk at segment boundaries without materially attenuating gait bands.
std::vector<Vec3> smooth_path(const std::vector<Vec3>& pos, double fs) {
  const auto w = static_cast<std::size_t>(std::max(3.0, 0.035 * fs));
  return from_axes(padded_average(axis_of(pos, 0), w),
                   padded_average(axis_of(pos, 1), w),
                   padded_average(axis_of(pos, 2), w));
}

/// Heavier local smoothing around segment seams: the scripted activity
/// switch is a velocity discontinuity, which a human transition never is.
/// A double moving-average (triangular kernel) over ~0.5 s around each seam
/// bounds the seam acceleration to physical levels.
void smooth_seams(std::vector<Vec3>& pos, double fs,
                  const std::vector<std::size_t>& seams) {
  const auto w = static_cast<std::size_t>(std::max(5.0, 0.13 * fs));
  const std::size_t margin = 3 * w;
  for (std::size_t seam : seams) {
    if (seam < margin || seam + margin >= pos.size()) continue;
    const std::size_t lo = seam - margin;
    const std::size_t hi = seam + margin;
    for (int axis = 0; axis < 3; ++axis) {
      std::vector<double> window(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        window[i - lo] = axis == 0 ? pos[i].x : axis == 1 ? pos[i].y : pos[i].z;
      }
      window = dsp::moving_average(dsp::moving_average(window, w), w);
      // Crossfade between the original and the smoothed center so the
      // write-back introduces no discontinuity of its own.
      for (std::size_t i = lo + w; i + w < hi; ++i) {
        const std::size_t from_edge = std::min(i - (lo + w), (hi - w - 1) - i);
        const double alpha =
            std::min(1.0, static_cast<double>(from_edge) / static_cast<double>(w));
        double& target = axis == 0 ? pos[i].x : axis == 1 ? pos[i].y : pos[i].z;
        target = (1.0 - alpha) * target + alpha * window[i - lo];
      }
    }
  }
}

std::vector<Vec3> resample_path(const std::vector<Vec3>& pos, double fs_in,
                                double fs_out) {
  return from_axes(dsp::resample_linear(axis_of(pos, 0), fs_in, fs_out),
                   dsp::resample_linear(axis_of(pos, 1), fs_in, fs_out),
                   dsp::resample_linear(axis_of(pos, 2), fs_in, fs_out));
}

}  // namespace

SynthResult synthesize(const Scenario& scenario, const UserProfile& user,
                       const SynthOptions& options, Rng& rng) {
  expects(!scenario.segments().empty(), "synthesize: non-empty scenario");
  expects(options.device_fs > 0.0 &&
              options.internal_fs >= options.device_fs,
          "synthesize: internal_fs >= device_fs > 0");

  const double fs = options.internal_fs;
  std::vector<Vec3> wrist;
  std::vector<Vec3> body;
  std::vector<double> tilt;
  std::vector<Vec3> tilt_axis;  // per sample (axis changes across segments)
  GroundTruth truth;

  double t_offset = 0.0;
  Vec3 wrist_shift{};
  Vec3 body_shift{};
  std::vector<std::size_t> seams;

  for (const ScenarioSegment& seg : scenario.segments()) {
    std::vector<Vec3> seg_wrist;
    std::vector<Vec3> seg_body;
    std::vector<double> seg_tilt;
    Vec3 seg_axis{0, 1, 0};
    std::vector<StepTruth> seg_steps;

    if (seg.kind == ActivityKind::Walking ||
        seg.kind == ActivityKind::Running ||
        seg.kind == ActivityKind::Stepping ||
        seg.kind == ActivityKind::SwingOnly) {
      GaitParams gp;
      gp.kind = seg.kind;
      gp.duration = seg.duration;
      gp.speed = seg.speed;
      gp.heading = seg.heading;
      gp.fs = fs;
      GaitPath path = generate_gait(gp, user, rng);
      seg_wrist = std::move(path.wrist);
      seg_body = std::move(path.body);
      seg_tilt = std::move(path.tilt);
      seg_axis = path.tilt_axis;
      seg_steps = std::move(path.steps);
    } else {
      ArcPath path = generate_interference(seg.kind, seg.posture, user,
                                           seg.duration, fs, rng);
      seg_wrist = std::move(path.pos);
      seg_tilt = std::move(path.theta);
      seg_axis = path.tilt_axis;
      seg_body.assign(seg_wrist.size(), Vec3{});
    }
    check(!seg_wrist.empty(), "synthesize: segment produced samples");
    check(seg_tilt.size() == seg_wrist.size(),
          "synthesize: tilt stream matches positions");

    // Stitch positions so the path is continuous across segments.
    if (!wrist.empty()) seams.push_back(wrist.size());
    const Vec3 dw = wrist.empty() ? Vec3{} : wrist_shift - seg_wrist.front();
    const Vec3 db = body.empty() ? Vec3{} : body_shift - seg_body.front();
    for (const Vec3& w : seg_wrist) wrist.push_back(w + dw);
    for (const Vec3& b : seg_body) body.push_back(b + db);
    for (double a : seg_tilt) tilt.push_back(a);
    tilt_axis.insert(tilt_axis.end(), seg_tilt.size(), seg_axis);
    wrist_shift = wrist.back();
    body_shift = body.back();

    SegmentTruth st;
    st.kind = seg.kind;
    st.t_begin = t_offset;
    st.t_end = t_offset + seg.duration;
    truth.segments.push_back(st);

    for (StepTruth step : seg_steps) {
      step.t += t_offset;
      step.segment = truth.segments.size() - 1;
      truth.steps.push_back(step);
    }
    t_offset += seg.duration;
  }

  // Kinematics -> specific force in the world frame.
  smooth_seams(wrist, fs, seams);
  const std::vector<Vec3> smoothed = smooth_path(wrist, fs);
  std::vector<Vec3> accel = second_derivative(smoothed, fs);
  for (Vec3& a : accel) a += Vec3{0, 0, kGravity};  // f = a - g_vec

  // Attitude residual: the device tilts with the arm/arc angle; imperfect
  // sensor fusion leaves a fraction of that tilt uncorrected, leaking
  // gravity between the projected channels. Rigid activities leak in
  // lock-step with their single DOF (synchrony preserved); walking's leak
  // carries the arm's phase into channels that also hold body-phase
  // content, deepening the asynchrony the offset metric measures.
  if (options.attitude_leak > 0.0) {
    const std::vector<double> tilt_smooth =
        dsp::moving_average(tilt, static_cast<std::size_t>(0.035 * fs));
    for (std::size_t i = 0; i < accel.size(); ++i) {
      const Mat3 residual = Mat3::axis_angle(
          tilt_axis[i], options.attitude_leak * tilt_smooth[i]);
      accel[i] = residual.transposed().apply(accel[i]);
    }
  }

  // Constant mounting rotation (device frame = R^T * world frame).
  Mat3 mount = Mat3::identity();
  if (options.random_mount) {
    mount = Mat3::from_euler(rng.uniform(-kMaxMountTilt, kMaxMountTilt),
                             rng.uniform(-kMaxMountTilt, kMaxMountTilt),
                             rng.uniform(0.0, kTwoPi));
  }
  const Mat3 world_to_device = mount.transposed();
  for (Vec3& a : accel) a = world_to_device.apply(a);

  // Gyroscope: the wrist physically rotates with the full tilt angle (the
  // attitude_leak above models only the *residual* after platform fusion;
  // the raw gyro sees the whole rotation). Rate = d(tilt)/dt about the
  // segment's tilt axis, expressed in the device frame.
  const std::vector<double> tilt_for_gyro =
      dsp::moving_average(tilt, static_cast<std::size_t>(0.035 * fs));
  std::vector<Vec3> gyro(accel.size());
  for (std::size_t i = 0; i + 1 < gyro.size(); ++i) {
    const double rate = (tilt_for_gyro[i + 1] - tilt_for_gyro[i]) * fs;
    gyro[i] = world_to_device.apply(tilt_axis[i] * rate);
  }
  if (gyro.size() >= 2) gyro[gyro.size() - 1] = gyro[gyro.size() - 2];

  // Resample to the device rate and assemble the trace.
  const std::vector<Vec3> dev_accel =
      resample_path(accel, fs, options.device_fs);
  const std::vector<Vec3> dev_gyro =
      resample_path(gyro, fs, options.device_fs);
  std::vector<imu::Sample> samples;
  samples.reserve(dev_accel.size());
  for (std::size_t i = 0; i < dev_accel.size(); ++i) {
    imu::Sample s;
    s.t = static_cast<double>(i) / options.device_fs;
    s.accel = dev_accel[i];
    s.gyro = i < dev_gyro.size() ? dev_gyro[i] : Vec3{};
    samples.push_back(s);
  }
  imu::Trace clean(options.device_fs, std::move(samples));

  SynthResult result;
  result.trace = imu::corrupt(clean, options.noise, rng);
  result.truth = std::move(truth);
  result.body_path = resample_path(body, fs, options.device_fs);
  return result;
}

SynthResult synthesize(const Scenario& scenario, const UserProfile& user,
                       Rng& rng) {
  return synthesize(scenario, user, SynthOptions{}, rng);
}

}  // namespace ptrack::synth
