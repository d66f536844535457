// Internal JSON writing helpers shared by every obs serializer (metrics
// snapshots, Chrome traces, the job log).  Not part of the public obs
// surface: callers outside src/obs build their JSON through those
// serializers, never through these primitives.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace cubisg::obs::detail {

/// Appends `s` as a quoted JSON string.  '"' and '\\' are backslash-
/// escaped and every byte below 0x20 becomes \u00XX, so arbitrary caller
/// text (scenario paths, audit details) always yields parseable JSON.
/// Bytes >= 0x80 pass through unchanged (UTF-8 stays UTF-8).
inline void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : s) {
    const auto byte = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += ch;
    }
  }
  out += '"';
}

/// Appends a JSON number.  JSON has no NaN/Inf: non-finite values clamp
/// to +-1e308 (NaN to 0) so a degenerate measurement never breaks a
/// parser.
inline void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

/// Writes `body` to `path` (truncating); false on any I/O failure.
inline bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cubisg::obs::detail
