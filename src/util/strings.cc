#include "util/strings.h"

#include <string.h>  // strerror_r (POSIX; <cstring> need not declare it)

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lockdown::util {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool SplitExact(std::string_view s, char sep,
                std::span<std::string_view> out) noexcept {
  const char* p = s.data();
  const char* const end = p + s.size();
  for (std::string_view& field : out) {
    const auto* hit = p == end ? nullptr
                               : static_cast<const char*>(std::memchr(
                                     p, sep, static_cast<std::size_t>(end - p)));
    if (hit == nullptr) {
      field = std::string_view(p, static_cast<std::size_t>(end - p));
      return &field == &out.back();
    }
    field = std::string_view(p, static_cast<std::size_t>(hit - p));
    p = hit + 1;
  }
  return false;  // a separator past the last field: too many fields
}

bool ParseDouble(std::string_view s, double& out) noexcept {
  char buf[64];
  if (s.size() >= sizeof(buf)) return false;
  const char* const end = s.data() + s.size();
  // from_chars agrees with strtod wherever it consumes the whole field; NaN
  // goes to strtod too, which keeps a "nan(...)" payload.
  const auto res = std::from_chars(s.data(), end, out);
  if (res.ec == std::errc() && res.ptr == end && !std::isnan(out)) return true;
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* parsed = nullptr;
  out = std::strtod(buf, &parsed);
  return parsed == buf + s.size();
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool DomainMatches(std::string_view host, std::string_view domain) noexcept {
  if (host.size() == domain.size()) return host == domain;
  if (host.size() > domain.size() && EndsWith(host, domain)) {
    return host[host.size() - domain.size() - 1] == '.';
  }
  return false;
}

std::string_view LastLabels(std::string_view host, int labels) noexcept {
  if (labels <= 0) return {};
  int seen = 0;
  for (std::size_t i = host.size(); i-- > 0;) {
    if (host[i] == '.') {
      if (++seen == labels) return host.substr(i + 1);
    }
  }
  return host;
}

namespace {

// strerror_r differs by libc: XSI returns int (0 = success, message in buf),
// GNU returns char* (may point into buf or at a static immutable string).
// Overloading on the actual return type picks the right reading at compile
// time without feature-test macro guesswork.
[[maybe_unused]] const char* ResolveStrerror(int rc, const char* buf) {
  return rc == 0 ? buf : "Unknown error";
}
[[maybe_unused]] const char* ResolveStrerror(const char* ret, const char*) {
  return ret;
}

}  // namespace

std::string ErrnoString(int err) {
  char buf[256] = {};
  return ResolveStrerror(strerror_r(err, buf, sizeof buf), buf);
}

std::string FormatBytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  while (bytes >= 1000.0 && unit < 5) {
    bytes /= 1000.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, kUnits[unit]);
  return buf;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace lockdown::util
