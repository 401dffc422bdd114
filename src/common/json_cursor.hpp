// One strict, streaming JSON reader for every JSON input the simulator
// and its drivers take: fault and migration plans (sim/scenario_io),
// Chrome-trace files behind `risa_cli --trace-summary` (sim/telemetry) and
// the committed scheduler bench baselines that `bench_engine_scale
// --profile` diffs against (sim/report).  Beside it, the number and string
// writers that every JSON output shares.
//
// Not a DOM: the caller pulls exactly the values its schema expects and
// skips the rest, so a multi-hundred-MB trace streams through in O(1)
// reader memory.  The reader is fail-closed: anything it does not accept
// throws std::runtime_error reading
//
//   <what> JSON (byte N): <msg>
//
// where N counts the bytes consumed so far.  Numbers must be finite,
// integer reads are range-checked into their type, and nesting depth and
// token length are capped (kMaxDepth, kMaxString), so no input can
// exhaust the stack or grow one token without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

namespace risa {

/// Append the shorter of "%.15g" / "%.17g" that parses back to exactly
/// `v` (17 significant digits are exact for binary64), so round values
/// stay short.  The one number writer behind every JSON document the
/// simulator writes; callers map non-finite values (not JSON) first.
void append_json_number(std::string& out, double v);

/// append_json_number into a fresh string.
[[nodiscard]] std::string json_number(double v);

/// Append `s` to `out` as a quoted JSON string: `"` and `\` are escaped,
/// \n and \t by name, and every other byte below 0x20 as \u00XX; all other
/// bytes (UTF-8 included) pass through.  The one string writer behind
/// every JSON document the simulator writes.
void append_json_string(std::string& out, std::string_view s);

class JsonCursor {
 public:
  /// Deepest object/array nesting accepted.
  static constexpr int kMaxDepth = 64;
  /// Longest string (after unescaping) or number token accepted, in bytes.
  static constexpr std::size_t kMaxString = 4096;

  /// `what` names the input in every error ("fault plan", "trace").
  JsonCursor(std::istream& in, const char* what) : in_(in), what_(what) {}

  [[noreturn]] void fail(const std::string& msg) const;

  /// Skip whitespace, then take `c` if it comes next.
  [[nodiscard]] bool consume(char c);
  /// consume(c), or fail.
  void expect(char c);

  /// A string with the standard escapes decoded (\uXXXX to UTF-8).
  [[nodiscard]] std::string string();
  /// A finite number.
  [[nodiscard]] double number();
  /// An integer in [0, max]; `field` names it in the error.  Plain digit
  /// runs convert exactly, so every u64 round-trips.
  [[nodiscard]] std::uint64_t u64(
      const char* field,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  [[nodiscard]] std::uint32_t u32(const char* field) {
    return static_cast<std::uint32_t>(
        u64(field, std::numeric_limits<std::uint32_t>::max()));
  }
  [[nodiscard]] bool boolean();
  void null();

  /// Read the object that comes next: `member(key)` runs once per member
  /// and must consume its value.
  template <typename Fn>
  void object(Fn&& member) {
    expect('{');
    enter();
    if (!consume('}')) {
      do {
        const std::string key = string();
        expect(':');
        member(key);
      } while (consume(','));
      expect('}');
    }
    --depth_;
  }

  /// Read the array that comes next: `item()` runs once per element and
  /// must consume it.
  template <typename Fn>
  void array(Fn&& item) {
    expect('[');
    enter();
    if (!consume(']')) {
      do {
        item();
      } while (consume(','));
      expect(']');
    }
    --depth_;
  }

  /// Consume one value of any type, checking it as strictly as the typed
  /// reads do.
  void skip_value();

  /// Fail unless only whitespace remains.
  void finish();

 private:
  /// Skip whitespace; the next byte (unconsumed) or EOF.
  int peek();
  int get();
  void enter();
  void literal(const char* word);
  unsigned hex4();
  /// The characters of a number, unconverted.
  std::string token();

  std::istream& in_;
  const char* what_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace risa
