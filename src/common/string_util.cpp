#include "common/string_util.hpp"

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace risa {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

/// `convert` (strtoll/strtod) over the whole of trim(s); nullopt when it
/// reads nothing, stops early or overflows -- the inputs stoll/stod threw on.
/// The NUL-terminated copy the C converters need sits on the stack unless
/// the text is longer than any number.
template <typename T, typename Convert>
std::optional<T> convert_whole(std::string_view s, Convert convert) {
  const std::string_view text = trim(s);
  char small[64];
  std::string large;
  const char* str = small;
  if (text.size() < sizeof small) {
    text.copy(small, text.size());
    small[text.size()] = '\0';
  } else {
    large.assign(text);
    str = large.c_str();
  }
  char* end = nullptr;
  errno = 0;
  const T v = convert(str, &end);
  if (text.empty() || end != str + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

// The grammar is strtod's.  std::from_chars reads a subset of it -- no
// leading '+', hex float or leading whitespace -- about four times faster
// and, like strtod, correctly rounded, so a text it reads whole into a
// value of magnitude strictly between DBL_MIN and DBL_MAX is one strtod
// reads whole into the same value without ERANGE.  Everything else (those
// spellings, inf/nan, zero, values at or past either end of the normal
// range, which strtod may flag as underflow or overflow, and malformed
// text) goes to strtod.
std::optional<double> to_f64(std::string_view s) {
  const std::string_view text = trim(s);
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc{} && end == text.data() + text.size()) {
    const double magnitude = std::fabs(v);
    if (magnitude > DBL_MIN && magnitude < DBL_MAX) return v;
  }
  return convert_whole<double>(
      text, [](const char* p, char** e) { return std::strtod(p, e); });
}

std::int64_t parse_i64(std::string_view s) {
  const auto v = convert_whole<std::int64_t>(
      s, [](const char* p, char** end) { return std::strtoll(p, end, 10); });
  if (!v) {
    throw std::runtime_error("parse_i64: bad integer '" + std::string(s) + "'");
  }
  return *v;
}

double parse_f64(std::string_view s) {
  const std::optional<double> v = to_f64(s);
  if (!v) {
    throw std::runtime_error("parse_f64: bad number '" + std::string(s) + "'");
  }
  return *v;
}

bool parse_bool(std::string_view s) {
  const std::string v = to_lower(trim(s));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error("parse_bool: bad boolean '" + std::string(s) + "'");
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    throw std::runtime_error("strformat: formatting error");
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

}  // namespace risa
