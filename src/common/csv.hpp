// Minimal CSV reader/writer for workload traces and experiment results.
// Supports quoted fields with embedded commas/quotes (RFC 4180 subset) --
// enough to round-trip our own traces and to export results for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
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
  /// Parse one CSV line (no embedded newlines) into `cells`, one string per
  /// field; a '\r' outside quotes is dropped (CRLF input).  The strings
  /// already in `cells` are reused, so a reader that passes one vector for
  /// every row allocates only for a row wider, or a field longer, than any
  /// before it.  Throws on unbalanced quotes.
  static void parse_line(std::string_view line, std::vector<std::string>& cells);
};

}  // namespace risa
