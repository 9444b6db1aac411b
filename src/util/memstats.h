// Process-memory observability.
//
// The streaming study engine (src/stream) claims a hard analysis-state
// memory budget; these helpers make that claim observable instead of
// asserted: peak/current RSS straight from the kernel, plus byte-size
// parsing/formatting for the `--memory-budget` CLI surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lockdown::util {

/// Peak resident set size of this process in bytes (ru_maxrss). 0 when the
/// platform cannot report it. Monotone over the process lifetime: it never
/// decreases, so "peak RSS under budget" is a statement about the whole run.
[[nodiscard]] std::size_t PeakRssBytes() noexcept;

/// Current resident set size in bytes, from /proc/self/statm. 0 when
/// unavailable (non-Linux or unreadable procfs).
[[nodiscard]] std::size_t CurrentRssBytes() noexcept;

/// Hands the heap's free pages back to the kernel (glibc `malloc_trim`); a
/// no-op with other C libraries. Call where a large scratch phase has just
/// ended, so the next phase's peak RSS does not count pages nobody holds.
void ReleaseFreeHeap() noexcept;

/// Samples PeakRssBytes/CurrentRssBytes into the obs gauges
/// "process/peak_rss_bytes" and "process/current_rss_bytes". No-op unless
/// metrics are enabled. Call at natural milestones (end of a run, after a
/// pass) — gauges are last-write-wins.
void PublishRssGauges() noexcept;

/// "1023 B", "4.0 KiB", "31.5 MiB", "2.0 GiB" — binary units, one decimal
/// for scaled values.
[[nodiscard]] std::string FormatByteSize(std::size_t bytes);

/// Parses a byte size with an optional binary-unit suffix: "65536", "64K",
/// "64KiB", "32M", "2G" (case-insensitive; "B" alone is also accepted).
/// Returns nullopt on malformed input, a negative value, or overflow.
[[nodiscard]] std::optional<std::size_t> ParseByteSize(std::string_view s) noexcept;

}  // namespace lockdown::util
