#include "util/memstats.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

#include "obs/obs.h"

namespace lockdown::util {

std::size_t PeakRssBytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024U;
#endif
#else
  return 0;  // unsupported platform: report "unknown", never garbage
#endif
}

void ReleaseFreeHeap() noexcept {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void ReleasePages(std::span<const std::byte> bytes) noexcept {
#if defined(__linux__)
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(bytes.data());
  const std::uintptr_t first = (begin + page - 1) / page * page;
  const std::uintptr_t last = (begin + bytes.size()) / page * page;
  if (first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
  }
#else
  (void)bytes;
#endif
}

void* MapPages(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

void UnmapPages(void* pages, std::size_t bytes) noexcept {
  if (pages != nullptr) munmap(pages, bytes);
}

std::size_t CurrentRssBytes() noexcept {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long rss_pages = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::size_t>(rss_pages) *
         static_cast<std::size_t>(page > 0 ? page : 4096);
#else
  return 0;  // live RSS needs procfs; peak via getrusage may still work
#endif
}

void PublishRssGauges() noexcept {
  if (!obs::MetricsEnabled()) return;
  static obs::Gauge& peak = obs::GetGauge("process/peak_rss_bytes", "bytes");
  static obs::Gauge& current =
      obs::GetGauge("process/current_rss_bytes", "bytes");
  peak.Set(static_cast<double>(PeakRssBytes()));
  current.Set(static_cast<double>(CurrentRssBytes()));
}

std::string FormatByteSize(std::size_t bytes) {
  constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof buf, "%zu B", bytes);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

std::optional<std::size_t> ParseByteSize(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr == begin) return std::nullopt;
  std::string_view suffix(ptr, static_cast<std::size_t>(end - ptr));
  std::uint64_t multiplier = 1;
  if (!suffix.empty()) {
    const char unit = static_cast<char>(
        std::tolower(static_cast<unsigned char>(suffix.front())));
    std::string_view rest = suffix.substr(1);
    switch (unit) {
      case 'b': multiplier = 1; break;
      case 'k': multiplier = 1ULL << 10; break;
      case 'm': multiplier = 1ULL << 20; break;
      case 'g': multiplier = 1ULL << 30; break;
      case 't': multiplier = 1ULL << 40; break;
      default: return std::nullopt;
    }
    // Accept "64K", "64KB", "64KiB" (and lower-case variants); nothing else.
    if (unit != 'b' && !rest.empty()) {
      if (rest == "b" || rest == "B") {
        rest = {};
      } else if (rest.size() == 2 &&
                 (rest[0] == 'i' || rest[0] == 'I') &&
                 (rest[1] == 'b' || rest[1] == 'B')) {
        rest = {};
      }
    }
    if (!rest.empty()) return std::nullopt;
  }
  if (value != 0 &&
      multiplier > std::numeric_limits<std::uint64_t>::max() / value) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(value * multiplier);
}

}  // namespace lockdown::util
