#include "util/memstats.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace lockdown::util {
namespace {

TEST(Memstats, PeakRssIsReported) {
  const std::size_t peak = PeakRssBytes();
  // A running test binary has at least a megabyte resident.
  EXPECT_GT(peak, 1U << 20);
}

TEST(Memstats, CurrentRssIsReported) {
  const std::size_t current = CurrentRssBytes();
  EXPECT_GT(current, 1U << 20);
  // current <= peak is not a strict kernel invariant: ru_maxrss is sampled
  // at scheduling points while statm is live, so allow slack of a few pages.
  EXPECT_LE(current, PeakRssBytes() + (1U << 20));
}

TEST(Memstats, PeakTracksLargeAllocations) {
  const std::size_t before = PeakRssBytes();
  constexpr std::size_t kBytes = 64U << 20;
  std::vector<char> block(kBytes);
  // Touch every page so the kernel actually maps it.
  std::memset(block.data(), 0x5a, block.size());
  const std::size_t after = PeakRssBytes();
  EXPECT_GE(after, before);
  EXPECT_GT(after, kBytes / 2);
}

TEST(Memstats, ReleasePagesTouchesOnlyWholeInteriorPages) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t size = 8 * page;
  const std::shared_ptr<std::byte[]> buffer = MapArray<std::byte>(size);
  const std::span<std::byte> bytes(buffer.get(), size);
  std::memset(bytes.data(), 0xAB, size);
  std::vector<bool> released(size, false);
  const auto release = [&](std::size_t begin, std::size_t end,
                           std::size_t first_page, std::size_t last_page) {
    ReleasePages(bytes.subspan(begin, end - begin));
    for (std::size_t i = first_page * page; i < last_page * page; ++i) {
      released[i] = true;
    }
  };
  release(page / 2, 3 * page + 100, 1, 3);       // unaligned: pages 1 and 2
  release(4 * page + 10, 4 * page + 1000, 0, 0);  // inside one page
  release(5 * page + 5, 5 * page + 5, 0, 0);      // empty
  release(6 * page, 7 * page, 6, 7);              // exactly page 6
  ReleasePages({});
  for (std::size_t i = 0; i < size; ++i) {
#if defined(__linux__)
    const std::byte want = released[i] ? std::byte{0} : std::byte{0xAB};
#else
    const std::byte want{0xAB};
#endif
    ASSERT_EQ(bytes[i], want) << "byte " << i;
  }
}

TEST(Memstats, PublishRssGaugesSetsBothGauges) {
  obs::SetMetricsEnabled(true);
  PublishRssGauges();
  obs::SetMetricsEnabled(false);
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  double peak = -1.0;
  double current = -1.0;
  for (const auto& g : snap.gauges) {
    if (g.name == "process/peak_rss_bytes") peak = g.value;
    if (g.name == "process/current_rss_bytes") current = g.value;
  }
  EXPECT_GT(peak, double{1U << 20});
  EXPECT_GT(current, double{1U << 20});
  obs::ResetMetrics();
}

TEST(Memstats, PublishRssGaugesIsInertWhenMetricsOff) {
  obs::SetMetricsEnabled(false);
  PublishRssGauges();  // must not register or set anything
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  for (const auto& g : snap.gauges) {
    if (g.name == "process/peak_rss_bytes" ||
        g.name == "process/current_rss_bytes") {
      EXPECT_EQ(g.value, 0.0);
    }
  }
}

TEST(Memstats, FormatByteSize) {
  EXPECT_EQ(FormatByteSize(0), "0 B");
  EXPECT_EQ(FormatByteSize(1023), "1023 B");
  EXPECT_EQ(FormatByteSize(1024), "1.0 KiB");
  EXPECT_EQ(FormatByteSize(1536), "1.5 KiB");
  EXPECT_EQ(FormatByteSize(32U << 20), "32.0 MiB");
  EXPECT_EQ(FormatByteSize(3ULL << 30), "3.0 GiB");
}

TEST(Memstats, ParseByteSizeAcceptsSuffixes) {
  EXPECT_EQ(ParseByteSize("65536"), 65536U);
  EXPECT_EQ(ParseByteSize("64K"), 64U << 10);
  EXPECT_EQ(ParseByteSize("64k"), 64U << 10);
  EXPECT_EQ(ParseByteSize("64KB"), 64U << 10);
  EXPECT_EQ(ParseByteSize("64KiB"), 64U << 10);
  EXPECT_EQ(ParseByteSize("32M"), 32U << 20);
  EXPECT_EQ(ParseByteSize("32MiB"), 32U << 20);
  EXPECT_EQ(ParseByteSize("2G"), 2ULL << 30);
  EXPECT_EQ(ParseByteSize("100B"), 100U);
  EXPECT_EQ(ParseByteSize("0"), 0U);
}

TEST(Memstats, ParseByteSizeRejectsGarbage) {
  EXPECT_FALSE(ParseByteSize(""));
  EXPECT_FALSE(ParseByteSize("abc"));
  EXPECT_FALSE(ParseByteSize("-1"));
  EXPECT_FALSE(ParseByteSize("12X"));
  EXPECT_FALSE(ParseByteSize("12MBs"));
  EXPECT_FALSE(ParseByteSize("12Mi"));
  EXPECT_FALSE(ParseByteSize("  12"));
  // Overflow: 2^60 KiB does not fit in 64 bits.
  EXPECT_FALSE(ParseByteSize("1152921504606846976K"));
}

TEST(Memstats, ParseFormatRoundTrip) {
  for (const std::size_t v : {std::size_t{1} << 10, std::size_t{7} << 20,
                              std::size_t{3} << 30}) {
    const auto parsed = ParseByteSize(std::to_string(v));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
}

}  // namespace
}  // namespace lockdown::util
