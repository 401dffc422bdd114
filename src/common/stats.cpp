#include "common/stats.hpp"

namespace risa {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void TimeWeightedMean::update(double t, double value) {
  if (!started_) {
    started_ = true;
    t_first_ = t;
    t_last_ = t;
    value_ = value;
    peak_ = value;
    return;
  }
  if (t < t_last_) {
    throw std::invalid_argument("TimeWeightedMean: time went backwards");
  }
  area_ += value_ * (t - t_last_);
  t_last_ = t;
  value_ = value;
  peak_ = std::max(peak_, value);
}

double TimeWeightedMean::integral(double t_end) const {
  if (!started_) return 0.0;
  if (t_end < t_last_) {
    throw std::invalid_argument("TimeWeightedMean: t_end before last update");
  }
  return area_ + value_ * (t_end - t_last_);
}

double TimeWeightedMean::mean(double t_end) const {
  if (!started_) return 0.0;
  const double span = t_end - t_first_;
  if (span <= 0.0) return value_;
  return integral(t_end) / span;
}

}  // namespace risa
