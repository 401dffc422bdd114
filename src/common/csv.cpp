#include "common/csv.hpp"

#include <ostream>
#include <stdexcept>

namespace risa {

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os_ << ',';
    os_ << escape(cells[i]);
  }
  os_ << '\n';
}

std::vector<std::string> CsvReader::parse_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      cells.push_back(std::move(cur));
      cur.clear();
    } else if (ch == '\r') {
      // tolerate CRLF
    } else {
      cur += ch;
    }
  }
  if (in_quotes) throw std::runtime_error("CSV: unbalanced quotes");
  cells.push_back(std::move(cur));
  return cells;
}

}  // namespace risa
