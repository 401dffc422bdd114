// CSV trace round-trip: export generated workloads for external plotting,
// re-import recorded traces to drive the simulator.
//
// Format (header required):
//   vm_id,cores,ram_mb,storage_mb,arrival,lifetime
//
// Reading is streaming: TraceReader parses one record per call with real
// 1-based file line numbers on every error, and read_trace/load_trace are
// thin accumulation wrappers over it.  A malformed row always throws --
// records are never silently truncated or skipped.
//
// `vm_id` is carried through verbatim (a negative value wraps to u32) but
// the engine does not use it: a VM is its record's position in the trace,
// and the engine overwrites `vm.id` with that index on intake (DESIGN.md
// §7.2), so ids may repeat or take any value.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/vm.hpp"

namespace risa::wl {

/// Incremental trace parser.  Construction consumes and validates the
/// header line; each next() parses one record.  Malformed records throw
/// std::runtime_error naming the 1-based file line (blank lines are
/// tolerated and counted, matching what editors show).
class TraceReader {
 public:
  explicit TraceReader(std::istream& is);

  /// Parse the next record into `out`; returns false at end of file.
  [[nodiscard]] bool next(VmRequest& out);

  /// 1-based file line of the record last returned by next() (the header
  /// line right after construction).
  [[nodiscard]] std::size_t line_number() const noexcept { return line_; }

  /// Stream byte offset of the next unread line, for checkpointable
  /// sources (only meaningful on seekable streams).
  [[nodiscard]] std::streampos tell() const;
  /// Jump to a previously tell()ed offset, restoring the line counter.
  void seek(std::streampos pos, std::size_t line);

 private:
  /// Next non-empty line into cells_; false at EOF.
  [[nodiscard]] bool next_row();

  std::istream* is_;
  std::size_t line_ = 0;
  std::string linebuf_;
  std::vector<std::string> cells_;
};

void write_trace(std::ostream& os, const Workload& vms);
[[nodiscard]] Workload read_trace(std::istream& is);

/// File-path conveniences; throw std::runtime_error on IO failure.
void save_trace(const std::string& path, const Workload& vms);
[[nodiscard]] Workload load_trace(const std::string& path);

}  // namespace risa::wl
