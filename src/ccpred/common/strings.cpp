#include "ccpred/common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>

#include "ccpred/common/error.hpp"

namespace ccpred {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

double parse_double(std::string_view s) {
  const std::string t = trim(s);
  CCPRED_REQUIRE(!t.empty(), "cannot parse empty string as double");
  double value = 0.0;
  const auto* first = t.data();
  const auto* last = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  CCPRED_REQUIRE(ec == std::errc() && ptr == last,
                 "cannot parse '" << t << "' as double");
  return value;
}

long long parse_int(std::string_view s) {
  const std::string t = trim(s);
  CCPRED_REQUIRE(!t.empty(), "cannot parse empty string as int");
  long long value = 0;
  const auto* first = t.data();
  const auto* last = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  CCPRED_REQUIRE(ec == std::errc() && ptr == last,
                 "cannot parse '" << t << "' as int");
  return value;
}

long long parse_int_in(std::string_view s, std::string_view what, long long lo,
                       long long hi) {
  const std::string t = trim(s);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  const bool ok = !t.empty() && ec == std::errc() &&
                  ptr == t.data() + t.size() && value >= lo && value <= hi;
  if (!ok) {
    std::ostringstream os;
    os << what << " must be an integer ";
    if (hi == std::numeric_limits<long long>::max()) {
      os << ">= " << lo;
    } else {
      os << "in " << lo << ".." << hi;
    }
    os << ", got '" << t << "'";
    throw Error(os.str());
  }
  return value;
}

std::string format_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace ccpred
