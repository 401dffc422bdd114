// Named experiment matrices with checked claims.
//
// Each ablation and extension of the paper is one registry entry, and each
// entry is data: a SweepSpec builder taking the workload seed, the tables it
// prints, and its claims.  A claim is a short text plus a check over the
// executed cells that reports what it measured, so a conclusion is a row
// that passes or fails rather than a printed footer.  `figure_suite
// --matrix=NAME|all` runs them.  Checks read cells by position, never by
// result labels, so a run whose cells are permuted reads as a different
// experiment; the tests use that to show that no claim holds vacuously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep.hpp"

namespace risa::sim {

/// An executed matrix: the spec that ran and its cells in expansion order.
struct MatrixRun {
  SweepSpec spec;
  std::vector<SweepResult> results;

  /// Metrics of one cell (seed, fault and migration index 0).
  [[nodiscard]] const SimMetrics& cell(std::size_t scenario,
                                       std::size_t workload,
                                       std::size_t algorithm) const;
  /// Position of `algorithm` on the algorithm axis; std::logic_error when
  /// the matrix does not run it.
  [[nodiscard]] std::size_t algorithm(std::string_view algorithm) const;
};

/// The shape of a claim: an ordering between cells, a ratio bound, a value
/// that holds across an axis, or an exact match.
enum class ClaimKind : std::uint8_t { Ordering, Ratio, Invariant, Exact };

struct ClaimVerdict {
  bool holds = false;
  std::string measured;  ///< what the check read off the cells
};

struct Claim {
  ClaimKind kind = ClaimKind::Ordering;
  std::string text;
  std::function<ClaimVerdict(const MatrixRun&)> check;
};

struct Matrix {
  std::string name;
  std::string benchmark;  ///< the "benchmark" label of its sweep JSON
  std::function<SweepSpec(std::uint64_t seed)> spec;
  std::function<void(std::ostream&, const MatrixRun&)> print;
  std::vector<Claim> claims;
};

/// Every registered matrix, `figures` (the paper's figure suite) first.
[[nodiscard]] const std::vector<Matrix>& matrices();

/// Check every claim of `matrix` on `run`, print one line per claim to
/// `os`, and return how many failed.
std::size_t report_claims(std::ostream& os, const Matrix& matrix,
                          const MatrixRun& run);

}  // namespace risa::sim
