// Minimal CSV reader/writer for workload traces and experiment results.
// Supports quoted fields with embedded commas/quotes (RFC 4180 subset) --
// enough to round-trip our own traces and to export results for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace risa {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);

  /// Escape one cell per RFC 4180 (quote when it contains , " or newline).
  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  std::ostream& os_;
};

class CsvReader {
 public:
  /// Parse one CSV line (no embedded newlines).  Throws on unbalanced
  /// quotes.
  [[nodiscard]] static std::vector<std::string> parse_line(const std::string& line);
};

}  // namespace risa
