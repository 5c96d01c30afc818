//===- support/Support.h - Misc small utilities ----------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small utilities shared across the library: unreachable marker, string
/// joining, and indentation helpers used by the various printers.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_SUPPORT_H
#define GNT_SUPPORT_SUPPORT_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace gnt {

/// Marks a point in the code that must never be reached; aborts with a
/// message if it is.
[[noreturn]] inline void gntUnreachable(const char *Msg) {
  std::fprintf(stderr, "UNREACHABLE executed: %s\n", Msg);
  std::abort();
}

/// Joins the elements of \p Parts with \p Sep.
inline std::string join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string R;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I)
      R += Sep;
    R += Parts[I];
  }
  return R;
}

/// Returns \p Level * 2 spaces, used by the AST and annotation printers.
inline std::string indent(unsigned Level) {
  return std::string(static_cast<size_t>(Level) * 2, ' ');
}

/// Formats a signed integer as a compact string.
inline std::string itostr(long long V) { return std::to_string(V); }

} // namespace gnt

#endif // GNT_SUPPORT_SUPPORT_H
