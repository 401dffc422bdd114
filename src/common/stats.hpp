// Statistical accumulators used by the simulation metrics layer.
//
// Two families:
//   * sample statistics (RunningStats) over discrete observations such
//     as per-VM latency;
//   * time-weighted statistics (TimeWeightedMean) that integrate a
//     piecewise-constant signal such as utilization or power over the
//     simulated horizon, which is how the paper reports "average CPU
//     utilization 64.66%".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace risa {

/// Welford's online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  /// Merge another accumulator (Chan et al. parallel combination).
  void merge(const RunningStats& other) noexcept;

  /// Checkpointable accumulator state; restore() continues the identical
  /// Welford recurrence (bit-exact given the same subsequent adds).
  struct State {
    std::uint64_t n;
    double mean, m2, sum, min, max;
  };
  [[nodiscard]] State save() const noexcept {
    return {static_cast<std::uint64_t>(n_), mean_, m2_, sum_, min_, max_};
  }
  void restore(const State& s) noexcept {
    n_ = static_cast<std::size_t>(s.n);
    mean_ = s.mean;
    m2_ = s.m2;
    sum_ = s.sum;
    min_ = s.min;
    max_ = s.max;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Integrates a piecewise-constant signal over time.  Call `update(t, v)`
/// whenever the signal changes to value `v` at time `t`; `mean(t_end)` is
/// the time-weighted average over [t_first, t_end].
class TimeWeightedMean {
 public:
  void update(double t, double value);

  /// Time-weighted mean over the observed interval, extending the last
  /// value to `t_end`.
  [[nodiscard]] double mean(double t_end) const;

  /// Integral of the signal over [t_first, t_end].
  [[nodiscard]] double integral(double t_end) const;

  [[nodiscard]] double current() const noexcept { return value_; }
  [[nodiscard]] bool empty() const noexcept { return !started_; }
  [[nodiscard]] double peak() const noexcept { return peak_; }

  /// Checkpointable integrator state (see RunningStats::State).
  struct State {
    std::uint8_t started;
    double t_first, t_last, value, area, peak;
  };
  [[nodiscard]] State save() const noexcept {
    return {started_ ? std::uint8_t{1} : std::uint8_t{0},
            t_first_, t_last_, value_, area_, peak_};
  }
  void restore(const State& s) noexcept {
    started_ = s.started != 0;
    t_first_ = s.t_first;
    t_last_ = s.t_last;
    value_ = s.value;
    area_ = s.area;
    peak_ = s.peak;
  }

 private:
  bool started_ = false;
  double t_first_ = 0.0;
  double t_last_ = 0.0;
  double value_ = 0.0;
  double area_ = 0.0;
  double peak_ = -std::numeric_limits<double>::infinity();
};

}  // namespace risa
