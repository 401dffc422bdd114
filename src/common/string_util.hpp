// Small string helpers shared by config parsing, CSV IO and report
// formatting.  Kept dependency-free.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace risa {

[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);
[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parse helpers that throw std::runtime_error with the offending text.
/// Each takes the whole of `s` but surrounding whitespace, or throws.
[[nodiscard]] std::int64_t parse_i64(std::string_view s);
[[nodiscard]] double parse_f64(std::string_view s);
[[nodiscard]] bool parse_bool(std::string_view s);
/// parse_f64 without the throw: nullopt where parse_f64 would throw.
[[nodiscard]] std::optional<double> to_f64(std::string_view s);

/// printf-style formatting into std::string.
[[nodiscard]] std::string strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace risa
