#pragma once

/// \file strings.hpp
/// Small string utilities shared by CSV I/O, report formatting and the
/// stable hashes of cache keys and artifacts.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccpred {

/// Splits `s` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading and trailing whitespace.
std::string trim(std::string_view s);

/// Parses a double; throws ccpred::Error (with the offending text) on
/// failure or trailing garbage.
double parse_double(std::string_view s);

/// Parses an integer; throws ccpred::Error on failure.
long long parse_int(std::string_view s);

/// Parses an integer that must lie in [lo, hi]. Throws ccpred::Error naming
/// `what` (a flag or a field) when the text is not an integer or the value
/// is out of range, so nothing wraps on a later narrowing cast.
long long parse_int_in(std::string_view s, std::string_view what, long long lo,
                       long long hi);

/// parse_int_in over the values T holds, from max(lo, T's lowest) to T's
/// highest (capped at long long's). Pass lo = 0 for a count.
template <typename T>
T parse_int_as(std::string_view s, std::string_view what,
               long long lo = std::numeric_limits<long long>::min()) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  constexpr T kTop = std::numeric_limits<T>::max();
  const long long hi =
      std::cmp_less(kTop, kMax) ? static_cast<long long>(kTop) : kMax;
  const long long lowest =
      static_cast<long long>(std::numeric_limits<T>::lowest());
  return static_cast<T>(parse_int_in(s, what, std::max(lo, lowest), hi));
}

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
