#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace risa {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
}

Histogram Histogram::from_data(const std::vector<double>& data, std::size_t bins) {
  if (data.empty()) throw std::invalid_argument("Histogram::from_data: empty");
  const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
  double lo = *mn;
  double hi = *mx;
  if (lo == hi) hi = lo + 1.0;  // degenerate range: widen like matplotlib
  Histogram h(lo, hi, bins);
  for (double x : data) h.add(x);
  return h;
}

std::size_t Histogram::bin_of(double x) const {
  if (x < lo_ || x > hi_) {
    throw std::out_of_range("Histogram: sample outside [lo, hi]");
  }
  // matplotlib: last bin is closed ([lo_k, hi] rather than [lo_k, hi_k)).
  if (x == hi_) return counts_.size() - 1;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::size_t>((x - lo_) / width);
  return std::min(bin, counts_.size() - 1);
}

void Histogram::add(double x) {
  ++counts_[bin_of(x)];
  ++total_;
}

std::int64_t Histogram::count(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram: bad bin");
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram: bad bin");
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram: bad bin");
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin + 1);
}

double Histogram::percentile(double p) const {
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("Histogram::percentile: p outside [0, 100]");
  }
  if (total_ == 0) {
    throw std::logic_error("Histogram::percentile: empty histogram");
  }
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total_))));
  std::int64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    cumulative += counts_[b];
    if (cumulative >= rank) return bin_hi(b);
  }
  return hi_;
}

Log2Histogram::Log2Histogram(std::size_t sub_bins) : sub_bins_(sub_bins) {
  if (sub_bins == 0) {
    throw std::invalid_argument("Log2Histogram: zero sub-bins");
  }
  // One underflow bin for [0, 1), then 64 octaves of sub_bins each -- the
  // full positive range of a 64-bit tick counter.
  counts_.assign(1 + 64 * sub_bins_, 0);
}

std::size_t Log2Histogram::bin_of(double x) const noexcept {
  if (!(x >= 1.0)) return 0;  // [0, 1), negatives and NaN
  // x >= 1 is normal (or +inf): x = (1 + f) * 2^octave with the 52-bit
  // fraction f read straight from the bits.  frexp's mantissa m = (1 + f)/2
  // gives the same f as 2(m - 1/2), exactly, so the bins match its formula.
  const auto bits = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;
  const auto octave = static_cast<std::size_t>(bits >> 52) - 1023;
  if (octave >= 64) return counts_.size() - 1;  // +inf too (exponent 1024)
  const double f = static_cast<double>(bits & kFractionMask) * 0x1p-52;
  // f in [0, 1) sweeps the octave linearly: sub = floor(f * S).
  auto sub = static_cast<std::size_t>(f * static_cast<double>(sub_bins_));
  sub = std::min(sub, sub_bins_ - 1);
  return 1 + octave * sub_bins_ + sub;
}

double Log2Histogram::bin_hi(std::size_t bin) const noexcept {
  if (bin == 0) return 1.0;
  const std::size_t octave = (bin - 1) / sub_bins_;
  const std::size_t sub = (bin - 1) % sub_bins_;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) /
                              static_cast<double>(sub_bins_),
                    static_cast<int>(octave));
}

void Log2Histogram::add(double x) noexcept {
  ++counts_[bin_of(x)];
  ++total_;
}

double Log2Histogram::percentile(double p) const {
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("Log2Histogram::percentile: p outside [0, 100]");
  }
  if (total_ == 0) {
    throw std::logic_error("Log2Histogram::percentile: empty histogram");
  }
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total_))));
  std::int64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    cumulative += counts_[b];
    if (cumulative >= rank) return bin_hi(b) * scale_;
  }
  return bin_hi(counts_.size() - 1) * scale_;
}

void Log2Histogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

std::string Histogram::to_string(int bar_width) const {
  std::ostringstream os;
  const std::int64_t peak = counts_.empty()
      ? 0
      : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    os.setf(std::ios::fixed);
    os.precision(2);
    os << "[" << bin_lo(b) << ", " << bin_hi(b)
       << (b + 1 == counts_.size() ? "]" : ")") << "  " << counts_[b] << "  ";
    if (peak > 0) {
      const auto len = static_cast<int>(
          static_cast<double>(counts_[b]) / static_cast<double>(peak) *
          bar_width);
      for (int i = 0; i < len; ++i) os << '#';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace risa
