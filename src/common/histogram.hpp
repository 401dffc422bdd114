// Equal-width histogram matching matplotlib's `hist(x, bins=N)` semantics.
//
// Figure 6 of the paper characterizes the Azure workloads with 10-bin
// histograms over [min, max]; reproducing its exact counts requires the same
// binning rule: N equal-width bins spanning [min, max], where the final bin
// is closed on both sides.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace risa {

class Histogram {
 public:
  /// Fixed-range histogram with `bins` equal-width bins over [lo, hi].
  Histogram(double lo, double hi, std::size_t bins);

  /// Build with matplotlib auto-range: lo = min(data), hi = max(data).
  static Histogram from_data(const std::vector<double>& data, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bin_of(double x) const;
  [[nodiscard]] std::int64_t count(std::size_t bin) const;
  [[nodiscard]] const std::vector<std::int64_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::int64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

  /// Nearest-rank percentile at bin resolution: the upper edge of the first
  /// bin whose cumulative count reaches ceil(p/100 * total).  p in [0, 100];
  /// throws std::logic_error on an empty histogram.  Used by the scheduler
  /// perf baseline (p50/p99 per-placement latency).
  [[nodiscard]] double percentile(double p) const;

  /// Text rendering: one `[lo, hi) count` row per bin plus a bar.
  [[nodiscard]] std::string to_string(int bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

/// Bounded-memory log-scale histogram for latency percentiles at any
/// sample count.
///
/// `Histogram::from_data` needs the full sample vector (unbounded memory at
/// 10M placements) and auto-ranges its equal-width bins over [min, max]: one
/// outlier stretches the range until every typical sample lands in bin 0 and
/// p50 == p99 (the BENCH_engine.json 5M-row degeneration).  This sink is
/// streaming instead: each octave [2^k, 2^(k+1)) is split into
/// `sub_bins` equal-width sub-bins, so the relative quantization error is
/// bounded by 1/sub_bins regardless of range, the footprint is a fixed
/// `1 + 64 * sub_bins` counters, and nothing is stored per sample.
///
/// Samples are non-negative; values below 1.0 share an underflow bin (the
/// engine records raw TSC tick deltas, so sub-unit values only occur for
/// zero deltas).  `percentile` uses the same nearest-rank rule as Histogram
/// and reports the upper edge of the selected bin, scaled by
/// `set_value_scale` (the engine's ticks-to-nanoseconds calibration, known
/// only at end of run).
class Log2Histogram {
 public:
  explicit Log2Histogram(std::size_t sub_bins = 16);

  void add(double x) noexcept;

  /// Multiplier applied to bin edges on read-out (default 1.0).
  void set_value_scale(double scale) noexcept { scale_ = scale; }

  [[nodiscard]] std::int64_t total() const noexcept { return total_; }

  /// Nearest-rank percentile (p in [0, 100]); upper edge of the selected
  /// bin times the value scale.  Throws std::logic_error when empty.
  [[nodiscard]] double percentile(double p) const;

  /// Drop all counts; bin layout and value scale are retained.
  void clear() noexcept;

  /// The bin add(x) counts `x` in: 0 for x < 1 and NaN, the last bin for
  /// x >= 2^64 and +inf.
  [[nodiscard]] std::size_t bin_of(double x) const noexcept;

 private:
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;

  std::size_t sub_bins_;
  double scale_ = 1.0;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace risa
