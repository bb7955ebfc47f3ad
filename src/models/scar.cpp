#include "models/scar.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/peaks.hpp"
#include "dsp/projection.hpp"

namespace ptrack::models {

namespace {

constexpr std::size_t kFeaturesPerChannel = 6;
constexpr std::size_t kChannels = 3;  // magnitude, vertical, horizontal
constexpr std::size_t kCrossFeatures = 1;

void channel_features(std::span<const double> xs, double fs,
                      FeatureVector& out) {
  out.push_back(stats::mean(xs));
  out.push_back(stats::stddev(xs));
  out.push_back(stats::rms(xs));
  // One transform serves both spectral features (windows are >= 16
  // samples, so dominant_frequency's short-input case never applies).
  const std::vector<double> mag = dsp::magnitude_spectrum(xs);
  out.push_back(dsp::spectrum_peak_frequency(mag, fs));
  out.push_back(dsp::spectrum_entropy(mag));
  const std::size_t max_lag = xs.size() / 2;
  const std::size_t min_lag = std::max<std::size_t>(2, xs.size() / 16);
  const std::size_t period = dsp::dominant_period(xs, min_lag, max_lag);
  out.push_back(period > 0 ? dsp::autocorr_at(xs, period) : 0.0);
}

}  // namespace

std::size_t scar_feature_count() {
  return kFeaturesPerChannel * kChannels + kCrossFeatures;
}

FeatureVector scar_features(const imu::Trace& window) {
  expects(window.size() >= 16, "scar_features: window >= 16 samples");
  const double fs = window.fs();
  const dsp::ProjectedSignal proj =
      dsp::project(window.accel_axis(0), window.accel_axis(1),
                   window.accel_axis(2), fs);

  std::vector<double> horizontal(proj.anterior.size());
  for (std::size_t i = 0; i < horizontal.size(); ++i) {
    horizontal[i] = std::hypot(proj.anterior[i], proj.lateral[i]);
  }

  FeatureVector f;
  f.reserve(scar_feature_count());
  channel_features(window.accel_magnitude(), fs, f);
  channel_features(proj.vertical, fs, f);
  channel_features(horizontal, fs, f);
  f.push_back(stats::pearson(proj.vertical, proj.anterior));
  check(f.size() == scar_feature_count(), "scar_features: feature count");
  return f;
}

void ScarClassifier::fit(const std::vector<LabeledTrace>& examples,
                         double window_s) {
  expects(!examples.empty(), "ScarClassifier::fit: non-empty examples");
  expects(window_s > 0.0, "ScarClassifier::fit: window_s > 0");
  classes_.clear();

  std::map<std::string, std::vector<FeatureVector>> by_class;
  std::size_t total_windows = 0;
  for (const LabeledTrace& ex : examples) {
    const auto win =
        static_cast<std::size_t>(window_s * ex.trace.fs());
    if (win < 16) continue;
    for (std::size_t begin = 0; begin + win <= ex.trace.size(); begin += win) {
      by_class[ex.label].push_back(
          scar_features(ex.trace.slice(begin, begin + win)));
      ++total_windows;
    }
  }
  expects(total_windows >= 2, "ScarClassifier::fit: at least two windows");

  const std::size_t dim = scar_feature_count();
  for (const auto& [label, feats] : by_class) {
    ClassModel model;
    model.mean.assign(dim, 0.0);
    model.var.assign(dim, 0.0);
    for (const FeatureVector& f : feats) {
      for (std::size_t d = 0; d < dim; ++d) model.mean[d] += f[d];
    }
    for (std::size_t d = 0; d < dim; ++d) {
      model.mean[d] /= static_cast<double>(feats.size());
    }
    for (const FeatureVector& f : feats) {
      for (std::size_t d = 0; d < dim; ++d) {
        const double delta = f[d] - model.mean[d];
        model.var[d] += delta * delta;
      }
    }
    for (std::size_t d = 0; d < dim; ++d) {
      model.var[d] = model.var[d] / static_cast<double>(feats.size()) + 1e-6;
    }
    model.log_prior = std::log(static_cast<double>(feats.size()) /
                               static_cast<double>(total_windows));
    classes_[label] = std::move(model);
  }
}

std::string ScarClassifier::classify(const imu::Trace& window) const {
  expects(trained(), "ScarClassifier::classify: call fit() first");
  const FeatureVector f = scar_features(window);
  std::string best;
  double best_ll = -1e300;
  for (const auto& [label, model] : classes_) {
    double ll = model.log_prior;
    for (std::size_t d = 0; d < f.size(); ++d) {
      const double delta = f[d] - model.mean[d];
      ll += -0.5 * std::log(2.0 * 3.14159265358979 * model.var[d]) -
            0.5 * delta * delta / model.var[d];
    }
    if (ll > best_ll) {
      best_ll = ll;
      best = label;
    }
  }
  return best;
}

std::vector<std::string> ScarClassifier::classes() const {
  std::vector<std::string> out;
  out.reserve(classes_.size());
  for (const auto& [label, _] : classes_) out.push_back(label);
  return out;
}

ScarCounter::ScarCounter(ScarClassifier classifier,
                         std::vector<std::string> gait_labels, double window_s)
    : classifier_(std::move(classifier)),
      gait_labels_(std::move(gait_labels)),
      window_s_(window_s) {
  expects(classifier_.trained(), "ScarCounter: trained classifier");
  expects(!gait_labels_.empty(), "ScarCounter: at least one gait label");
  expects(window_s_ > 0.0, "ScarCounter: window_s > 0");
}

StepDetection ScarCounter::count_steps(const imu::Trace& trace) {
  StepDetection out;
  const auto win = static_cast<std::size_t>(window_s_ * trace.fs());
  if (win < 16 || trace.size() < win) return out;

  // Classify windows first, then count peaks over maximal *runs* of gait
  // windows — per-window counting would lose the peaks that fall on window
  // boundaries (up to one per boundary at normal cadence).
  std::vector<bool> is_gait;
  for (std::size_t begin = 0; begin + win <= trace.size(); begin += win) {
    const std::string label = classifier_.classify(trace.slice(begin, begin + win));
    is_gait.push_back(std::find(gait_labels_.begin(), gait_labels_.end(),
                                label) != gait_labels_.end());
  }

  std::size_t w = 0;
  while (w < is_gait.size()) {
    if (!is_gait[w]) {
      ++w;
      continue;
    }
    std::size_t run_end = w;
    while (run_end < is_gait.size() && is_gait[run_end]) ++run_end;
    const imu::Trace run = trace.slice(w * win, run_end * win);
    const dsp::ProjectedSignal proj =
        dsp::project(run.accel_axis(0), run.accel_axis(1), run.accel_axis(2),
                     run.fs());
    const auto vert = dsp::zero_phase_lowpass(proj.vertical, 3.0, run.fs(), 4);
    dsp::PeakOptions opt;
    opt.min_distance =
        std::max<std::size_t>(1, static_cast<std::size_t>(0.3 * run.fs()));
    opt.min_prominence = 0.5;
    for (std::size_t p : dsp::find_peaks(vert, opt)) {
      out.step_times.push_back(run[p].t);
    }
    w = run_end;
  }
  out.count = out.step_times.size();
  return out;
}

}  // namespace ptrack::models
