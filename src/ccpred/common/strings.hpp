#pragma once

/// \file strings.hpp
/// Small string utilities shared by CSV I/O, report formatting and the
/// stable hashes of cache keys and artifacts.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ccpred {

/// Splits `s` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading and trailing whitespace.
std::string trim(std::string_view s);

/// Parses a double; throws ccpred::Error (with the offending text) on
/// failure or trailing garbage.
double parse_double(std::string_view s);

/// Parses a non-negative integer; throws ccpred::Error on failure.
long long parse_int(std::string_view s);

/// Formats `v` with `prec` digits after the decimal point.
std::string format_double(double v, int prec);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// 64-bit FNV-1a of `s`, continuing from `h` (the FNV offset basis by
/// default). Stable across processes and builds, unlike std::hash.
constexpr std::uint64_t fnv1a64(std::string_view s,
                                std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ccpred
