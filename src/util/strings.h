// Small string utilities used across the pipeline; in particular the DNS
// suffix matching used by every application signature.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lockdown::util {

/// Splits on a single separator character. Empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> Split(std::string_view s, char sep);

/// Splits `s` on `sep` into exactly `out.size()` fields without allocating.
/// Returns false when the field count differs (`out` is then unspecified).
/// Empty fields are preserved, as in Split.
[[nodiscard]] bool SplitExact(std::string_view s, char sep,
                              std::span<std::string_view> out) noexcept;

/// Parses all of `s` as a double, accepting exactly what strtod accepts
/// (leading whitespace, '+', hex floats, inf/nan, out-of-range values as
/// +-HUGE_VAL or 0; an empty field reads as 0) with strtod's values. Fields
/// of 64 bytes or more are rejected. std::from_chars takes the common case;
/// whatever it does not fully consume goes to strtod.
[[nodiscard]] bool ParseDouble(std::string_view s, double& out) noexcept;

/// Joins pieces with the separator.
[[nodiscard]] std::string Join(const std::vector<std::string>& pieces,
                               std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view Trim(std::string_view s) noexcept;

/// ASCII lowercase copy.
[[nodiscard]] std::string ToLower(std::string_view s);

[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool EndsWith(std::string_view s, std::string_view suffix) noexcept;

/// True if `host` equals `domain` or is a subdomain of it
/// ("cdn.zoom.us" matches "zoom.us"; "notzoom.us" does not).
[[nodiscard]] bool DomainMatches(std::string_view host, std::string_view domain) noexcept;

/// Registrable-ish suffix of a host: the last `labels` DNS labels
/// ("a.b.facebook.com", 2) -> "facebook.com". Returns the whole host if it
/// has fewer labels.
[[nodiscard]] std::string_view LastLabels(std::string_view host, int labels) noexcept;

/// Thread-safe strerror: formats an errno value via strerror_r. std::strerror
/// shares a static buffer, and I/O errors here can surface from ParallelFor
/// worker threads (concurrency-mt-unsafe).
[[nodiscard]] std::string ErrnoString(int err);

/// Human-readable byte count ("1.5 GB").
[[nodiscard]] std::string FormatBytes(double bytes);

/// Fixed-precision double ("12.34").
[[nodiscard]] std::string FormatDouble(double v, int precision);

}  // namespace lockdown::util
