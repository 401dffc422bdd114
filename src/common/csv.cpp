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

void CsvReader::parse_line(std::string_view line,
                           std::vector<std::string>& cells) {
  std::size_t n = 0;
  const auto next_cell = [&]() -> std::string& {
    if (n == cells.size()) cells.emplace_back();
    std::string& cell = cells[n++];
    cell.clear();
    return cell;
  };
  std::string* cur = &next_cell();
  bool in_quotes = false;
  // Plain runs between special characters are appended whole.
  for (std::size_t i = 0; i < line.size();) {
    if (in_quotes) {
      const std::size_t q = line.find('"', i);
      if (q == std::string_view::npos) {
        cur->append(line.substr(i));
        break;
      }
      cur->append(line.substr(i, q - i));
      if (q + 1 < line.size() && line[q + 1] == '"') {
        *cur += '"';
        i = q + 2;
      } else {
        in_quotes = false;
        i = q + 1;
      }
      continue;
    }
    std::size_t special = i;
    while (special < line.size() && line[special] != ',' &&
           line[special] != '"' && line[special] != '\r') {
      ++special;
    }
    cur->append(line.substr(i, special - i));
    if (special == line.size()) break;
    if (line[special] == '"') {
      in_quotes = true;
    } else if (line[special] == ',') {
      cur = &next_cell();
    }  // '\r': dropped, which tolerates CRLF
    i = special + 1;
  }
  if (in_quotes) throw std::runtime_error("CSV: unbalanced quotes");
  cells.resize(n);
}

}  // namespace risa
