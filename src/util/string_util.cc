#include "util/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace hopdb {

namespace {
std::string FormatScaled(double v, const char* suffix) {
  char buf[64];
  if (v >= 100) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", v, suffix);
  } else if (v >= 10) {
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, suffix);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%s", v, suffix);
  }
  return buf;
}
}  // namespace

std::string HumanCount(uint64_t n) {
  if (n < 1000) return std::to_string(n);
  double v = static_cast<double>(n);
  if (n < 1000ULL * 1000) return FormatScaled(v / 1e3, "K");
  if (n < 1000ULL * 1000 * 1000) return FormatScaled(v / 1e6, "M");
  return FormatScaled(v / 1e9, "G");
}

std::string HumanBytes(uint64_t bytes) {
  if (bytes < 1024) return std::to_string(bytes) + " B";
  double v = static_cast<double>(bytes);
  if (bytes < 1024ULL * 1024) return FormatScaled(v / 1024, " KB");
  if (bytes < 1024ULL * 1024 * 1024) return FormatScaled(v / (1024.0 * 1024), " MB");
  return FormatScaled(v / (1024.0 * 1024 * 1024), " GB");
}

std::string FormatDouble(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string HumanDuration(double seconds) {
  char buf[64];
  if (seconds < 0) return "-";
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else {
    int mins = static_cast<int>(seconds / 60);
    int secs = static_cast<int>(seconds) % 60;
    std::snprintf(buf, sizeof(buf), "%dm%02ds", mins, secs);
  }
  return buf;
}

std::vector<std::string> SplitString(const std::string& s, char delim,
                                     bool skip_empty) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      if (!cur.empty() || !skip_empty) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty() || !skip_empty) out.push_back(cur);
  return out;
}

std::string TrimString(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::memcmp(s.data(), prefix.data(), prefix.size()) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         std::memcmp(s.data() + s.size() - suffix.size(), suffix.data(),
                     suffix.size()) == 0;
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t next = v * 10 + static_cast<uint64_t>(c - '0');
    if (next < v) return false;  // overflow
    v = next;
  }
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace hopdb
