// Fixed-layout binary stream helpers for engine checkpoints.
//
// Every value is written little-endian regardless of host byte order so a
// checkpoint taken on one machine resumes on another; doubles travel as
// their IEEE-754 bit patterns (bit_cast through uint64), which is what
// makes a resumed run bit-identical rather than merely close.  Readers
// throw std::runtime_error on a short stream instead of returning garbage.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace risa::bin {

inline void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

inline void put_u32(std::ostream& os, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b, 4);
}

inline void put_u64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b, 8);
}

inline void put_i64(std::ostream& os, std::int64_t v) {
  put_u64(os, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::ostream& os, double v) {
  put_u64(os, std::bit_cast<std::uint64_t>(v));
}

inline void put_str(std::ostream& os, std::string_view s) {
  put_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c == std::istream::traits_type::eof()) {
    throw std::runtime_error("checkpoint: truncated stream");
  }
  return static_cast<std::uint8_t>(c);
}

inline std::uint32_t get_u32(std::istream& is) {
  char b[4];
  if (!is.read(b, 4)) throw std::runtime_error("checkpoint: truncated stream");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

inline std::uint64_t get_u64(std::istream& is) {
  char b[8];
  if (!is.read(b, 8)) throw std::runtime_error("checkpoint: truncated stream");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

inline std::int64_t get_i64(std::istream& is) {
  return static_cast<std::int64_t>(get_u64(is));
}

inline double get_f64(std::istream& is) {
  return std::bit_cast<double>(get_u64(is));
}

/// Reads in chunks of at most 64 KiB, so a corrupt length runs into
/// end-of-stream long before the string grows to the stored size.
inline std::string get_str(std::istream& is) {
  const std::uint64_t n = get_u64(is);
  if (n > (1ULL << 32)) {
    throw std::runtime_error("checkpoint: implausible string length");
  }
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::string s;
  while (s.size() < n) {
    const std::size_t at = s.size();
    const auto len = static_cast<std::size_t>(std::min(n - at, kChunk));
    s.resize(at + len);
    if (!is.read(s.data() + at, static_cast<std::streamsize>(len))) {
      throw std::runtime_error("checkpoint: truncated stream");
    }
  }
  return s;
}

}  // namespace risa::bin
