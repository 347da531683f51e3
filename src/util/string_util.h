// Small string formatting helpers shared by benches, tables, and logs.

#ifndef HOPDB_UTIL_STRING_UTIL_H_
#define HOPDB_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hopdb {

/// "1.2K", "3.4M", "5.6G" style counts (powers of 1000).
std::string HumanCount(uint64_t n);

/// "1.2 KB", "3.4 MB", "5.6 GB" style byte sizes (powers of 1024).
std::string HumanBytes(uint64_t bytes);

/// Fixed-point formatting: FormatDouble(3.14159, 2) == "3.14".
std::string FormatDouble(double v, int decimals);

/// Seconds rendered adaptively: "853us", "12.3ms", "4.56s", "2m03s".
std::string HumanDuration(double seconds);

/// Splits on a delimiter, dropping empty pieces when `skip_empty`.
std::vector<std::string> SplitString(const std::string& s, char delim,
                                     bool skip_empty = true);

/// Removes leading and trailing ASCII whitespace.
std::string TrimString(const std::string& s);

/// True if `s` begins with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(const std::string& s, const std::string& suffix);

/// Parses a non-negative integer; returns false on any non-digit content.
bool ParseUint64(const std::string& s, uint64_t* out);

/// Parses a finite double via strtod; returns false on trailing garbage
/// and on nan, inf and out-of-range values such as 1e999.
bool ParseDouble(const std::string& s, double* out);

}  // namespace hopdb

#endif  // HOPDB_UTIL_STRING_UTIL_H_
