// Process-memory observability and control.
//
// The streaming study engine (src/stream) claims a hard analysis-state
// memory budget; these helpers make that claim observable instead of
// asserted: peak/current RSS straight from the kernel, plus byte-size
// parsing/formatting for the `--memory-budget` CLI surface. The pipeline's
// large arrays use the page-level helpers below, so each stage holds one
// copy of the flows at a time (DESIGN §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

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

/// Hands the whole pages strictly inside `bytes` back to the kernel
/// (`madvise(MADV_DONTNEED)`); the partial pages at either end stay. The
/// caller must never read those bytes again: anonymous pages read back as
/// zero. A no-op off Linux. For arrays a pass has finished with while it
/// still fills the array that replaces them.
void ReleasePages(std::span<const std::byte> bytes) noexcept;

/// Maps `bytes` of fresh anonymous pages (nullptr for 0); throws
/// std::bad_alloc when the kernel refuses. The pages read as zero and cost
/// no RSS until written.
[[nodiscard]] void* MapPages(std::size_t bytes);
/// Unmaps what MapPages returned; `bytes` must be the size it was given.
void UnmapPages(void* pages, std::size_t bytes) noexcept;

/// Backs each allocation with its own page mapping instead of malloc.
/// Freeing a multi-MiB malloc block raises glibc's dynamic mmap threshold,
/// and blocks of that size allocated later (the snapshot load, the next
/// capture) then stay in the heap: on a second 1200-student campus job in
/// one process that cost about 14 MiB of peak RSS. Use it for blocks of a
/// few MiB and up that are freed mid-run.
template <typename T>
struct PageAllocator {
  using value_type = T;
  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(MapPages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { UnmapPages(p, n * sizeof(T)); }
  friend bool operator==(const PageAllocator&, const PageAllocator&) = default;
};

/// `n` elements on their own page mapping, unmapped when the last owner
/// goes. No element is constructed or written: the pages read as zero, so
/// the array costs no fill pass, and the caller constructs or writes every
/// element before it is read. No destructor runs either, so T must be an
/// implicit-lifetime type.
template <typename T>
[[nodiscard]] std::shared_ptr<T[]> MapArray(std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T>);
  return std::shared_ptr<T[]>(PageAllocator<T>().allocate(n), [n](T* p) {
    PageAllocator<T>().deallocate(p, n);
  });
}

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
