#pragma once

/// \file flags.hpp
/// The `--key value` flag parser of ccpred_cli and ccpred_serverd. A usage
/// error throws ccpred::Error with a plain message naming the flag
/// (`unknown flag --bogus`), which the tools print as `error: <message>`.

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"

namespace ccpred::tools {

using Flags = std::map<std::string, std::string>;

/// Parses argv[first..argc) as `--key value` pairs. A positional argument,
/// a flag outside `known` and a trailing flag without a value are usage
/// errors.
inline Flags parse_flags(int argc, char** argv, int first,
                         const std::set<std::string>& known) {
  Flags flags;
  for (int i = first; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      throw Error("expected --flag, got '" + arg + "'");
    }
    if (known.count(arg.substr(2)) == 0) throw Error("unknown flag " + arg);
    if (i + 1 >= argc) throw Error("flag '" + arg + "' is missing a value");
    flags[arg.substr(2)] = argv[i + 1];
  }
  return flags;
}

inline std::string need(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw Error("missing required flag --" + key);
  return it->second;
}

inline std::string get_or(const Flags& flags, const std::string& key,
                          const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// The flag --key as a T >= lo (0 by default: most integer flags are
/// counts or seeds): `fallback` when absent, or required when there is
/// none. An out-of-range value fails with the flag's name instead of
/// wrapping.
template <typename T>
T int_flag(const Flags& flags, const std::string& key,
           const char* fallback = nullptr, long long lo = 0) {
  const std::string text =
      fallback == nullptr ? need(flags, key) : get_or(flags, key, fallback);
  return parse_int_as<T>(text, "--" + key, lo);
}

/// The flag --key as a finite number: `fallback` when absent, or required
/// when there is none. Text that is not a number, NaN and infinities fail
/// with the flag's name.
inline double double_flag(const Flags& flags, const std::string& key,
                          const char* fallback = nullptr) {
  const std::string text =
      fallback == nullptr ? need(flags, key) : get_or(flags, key, fallback);
  double value = std::numeric_limits<double>::quiet_NaN();
  try {
    value = parse_double(text);
  } catch (const Error&) {
  }
  if (!std::isfinite(value)) {
    throw Error("--" + key + " must be a finite number, got '" + text + "'");
  }
  return value;
}

/// An on/off flag: absent or 0 is off, 1 is on, and any other value is a
/// usage error.
inline bool switch_on(const Flags& flags, const std::string& key) {
  const std::string value = get_or(flags, key, "0");
  if (value != "0" && value != "1") {
    throw Error("--" + key + " must be 0 or 1, got '" + value + "'");
  }
  return value == "1";
}

}  // namespace ccpred::tools
