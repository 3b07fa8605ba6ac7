// Range-checked parsing of the command-line tools' numeric flags, shared
// by analysis_cli, fuzz_cli and campaign_cli.
//
// A flag value is a whole decimal number no greater than the maximum of
// the field it lands in. Anything else is a usage error: an empty string,
// a sign (strtoull would negate "-1" into a huge value), trailing
// characters, and any value past the maximum, strtoull's ERANGE included.
// So "--depth 4294967297" is refused instead of running at depth 1.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace ii::cli {

/// Parse `s` into `*out` if it is a decimal number in [0, max].
[[nodiscard]] inline bool parse_unsigned(const char* s, std::uint64_t max,
                                         std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;  // no sign, space or empty string
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v > max) return false;
  *out = v;
  return true;
}

/// parse_unsigned bounded by the maximum of the destination's type.
template <class T>
[[nodiscard]] bool parse_unsigned(const char* s, T* out) {
  static_assert(std::is_unsigned_v<T>);
  std::uint64_t v = 0;
  if (!parse_unsigned(s, std::numeric_limits<T>::max(), &v)) return false;
  *out = static_cast<T>(v);
  return true;
}

}  // namespace ii::cli
