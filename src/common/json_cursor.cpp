#include "common/json_cursor.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <stdexcept>

#include "common/string_util.hpp"

namespace risa {

namespace {

constexpr int kEof = std::char_traits<char>::eof();

void append_utf8(std::string& out, unsigned cp) {
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

}  // namespace

void append_json_number(std::string& out, double v) {
  char buf[32];
  int n = std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    n = std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out.append(buf, static_cast<std::size_t>(n));
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonCursor::fail(const std::string& msg) const {
  throw std::runtime_error(std::string(what_) + " JSON (byte " +
                           std::to_string(pos_) + "): " + msg);
}

int JsonCursor::get() {
  const int c = in_.get();
  if (c != kEof) ++pos_;
  return c;
}

int JsonCursor::peek() {
  int c = in_.peek();
  while (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
    get();
    c = in_.peek();
  }
  return c;
}

bool JsonCursor::consume(char c) {
  if (peek() != c) return false;
  get();
  return true;
}

void JsonCursor::expect(char c) {
  if (!consume(c)) fail(std::string("expected '") + c + "'");
}

void JsonCursor::enter() {
  if (++depth_ > kMaxDepth) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
}

unsigned JsonCursor::hex4() {
  char digits[4];
  for (char& d : digits) d = static_cast<char>(get());
  unsigned v = 0;
  const auto [p, ec] = std::from_chars(digits, digits + 4, v, 16);
  if (ec != std::errc() || p != digits + 4) fail("bad \\u escape");
  return v;
}

std::string JsonCursor::string() {
  expect('"');
  std::string out;
  for (;;) {
    int c = get();
    if (c == kEof) fail("unterminated string");
    if (c == '"') return out;
    if (c < 0x20) fail("control character in string");
    if (out.size() >= kMaxString) {
      fail("string longer than " + std::to_string(kMaxString) + " bytes");
    }
    if (c != '\\') {
      out += static_cast<char>(c);
      continue;
    }
    switch (c = get()) {
      case '"': case '\\': case '/': out += static_cast<char>(c); break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned cp = hex4();
        if (cp >= 0xDC00 && cp <= 0xDFFF) fail("unpaired \\u surrogate");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          if (get() != '\\' || get() != 'u') fail("unpaired \\u surrogate");
          const unsigned low = hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("unpaired \\u surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, cp);
        break;
      }
      default: fail("bad escape");
    }
  }
}

std::string JsonCursor::token() {
  std::string tok;
  for (int c = peek(); (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                       c == '.' || c == 'e' || c == 'E';
       c = in_.peek()) {
    if (tok.size() >= kMaxString) fail("number token too long");
    tok += static_cast<char>(get());
  }
  if (tok.empty()) fail("expected a number");
  return tok;
}

double JsonCursor::number() {
  const std::string tok = token();
  const char* end = tok.data() + tok.size();
  double v = 0.0;
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  // The token alphabet has no "inf"/"nan", and overflow is refused here,
  // so every accepted value is finite.
  if (ec == std::errc::result_out_of_range) {
    fail("number '" + tok + "' is out of range");
  }
  if (ec != std::errc() || p != end) fail("malformed number '" + tok + "'");
  return v;
}

std::uint64_t JsonCursor::u64(const char* field, std::uint64_t max) {
  const std::string tok = token();
  const char* end = tok.data() + tok.size();
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  bool ok = ec == std::errc() && p == end;
  if (!ok) {
    // Not a plain digit run: accept an integral value in any number form
    // ("1e3", "2.0").  The range check precedes the cast, which would be
    // undefined out of range.
    constexpr double kTwoPow64 = 18446744073709551616.0;
    double d = 0.0;
    const auto [dp, dec] = std::from_chars(tok.data(), end, d);
    ok = dec == std::errc() && dp == end && d >= 0.0 && d < kTwoPow64 &&
         d == std::floor(d);
    if (ok) v = static_cast<std::uint64_t>(d);
  }
  if (!ok || v > max) {
    fail(std::string(field) + " must be an integer in [0, " +
         std::to_string(max) + "], got '" + tok + "'");
  }
  return v;
}

void JsonCursor::literal(const char* word) {
  peek();
  for (const char* p = word; *p != '\0'; ++p) {
    if (get() != *p) fail(std::string("expected '") + word + "'");
  }
}

bool JsonCursor::boolean() {
  const int c = peek();
  if (c == 't') {
    literal("true");
    return true;
  }
  if (c != 'f') fail("expected true or false");
  literal("false");
  return false;
}

void JsonCursor::null() { literal("null"); }

void JsonCursor::skip_value() {
  switch (peek()) {
    case '"': (void)string(); break;
    case '{': object([this](const std::string&) { skip_value(); }); break;
    case '[': array([this] { skip_value(); }); break;
    case 't': case 'f': (void)boolean(); break;
    case 'n': null(); break;
    default: (void)number();
  }
}

void JsonCursor::finish() {
  if (peek() != kEof) fail("trailing content after the top-level value");
}

}  // namespace risa
