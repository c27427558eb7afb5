#pragma once

/// \file error.hpp
/// Error handling for ccpred: a library-wide exception type plus
/// precondition/invariant check macros. Following the C++ Core Guidelines
/// (E.2, I.6) we throw on contract violations rather than aborting, so
/// callers (tests in particular) can observe and recover from misuse.

#include <sstream>
#include <stdexcept>
#include <string>

namespace ccpred {

/// Exception thrown on any ccpred contract violation or runtime failure.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "ccpred check failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ::ccpred::Error(os.str());
}

}  // namespace detail
}  // namespace ccpred

/// Check a precondition/invariant; throws ccpred::Error with context on
/// failure. Enabled in all build types: the checked expressions in this
/// library are O(1) and never on an inner loop.
#define CCPRED_CHECK(expr)                                                  \
  do {                                                                      \
    if (!(expr))                                                            \
      ::ccpred::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

/// CCPRED_CHECK with an explanatory message (streamed, e.g. "n=" << n).
#define CCPRED_CHECK_MSG(expr, msg)                                     \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream ccpred_os_;                                    \
      ccpred_os_ << msg;                                                \
      ::ccpred::detail::throw_check_failure(#expr, __FILE__, __LINE__,  \
                                            ccpred_os_.str());          \
    }                                                                   \
  } while (0)

/// Rejects input from outside the program (a request line, a wire frame,
/// a number in a text field): throws ccpred::Error carrying only the
/// streamed message. The message goes back to whoever sent the input, so
/// it names neither the checked expression nor a source path.
#define CCPRED_REQUIRE(expr, msg)                \
  do {                                           \
    if (!(expr)) {                               \
      std::ostringstream ccpred_os_;             \
      ccpred_os_ << msg;                         \
      throw ::ccpred::Error(ccpred_os_.str());   \
    }                                            \
  } while (0)
