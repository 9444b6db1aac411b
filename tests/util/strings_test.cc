#include "util/strings.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace lockdown::util {
namespace {

TEST(Split, Basic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Split, EmptyString) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitExact, MatchesSplitWhenTheCountFits) {
  for (const std::string_view s : {"a\tb\tc", "\t\t", "a\t\tc", "\tb\t"}) {
    std::string_view fields[3];
    ASSERT_TRUE(SplitExact(s, '\t', fields)) << s;
    const auto parts = Split(s, '\t');
    ASSERT_EQ(parts.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(fields[i], parts[i]) << s;
  }
}

TEST(SplitExact, FailsOnAnyOtherCount) {
  std::string_view fields[3];
  for (const std::string_view s : {"", "a", "a\tb", "a\tb\tc\t", "a\tb\tc\td"}) {
    EXPECT_FALSE(SplitExact(s, '\t', fields)) << s;
  }
  std::string_view one[1];
  ASSERT_TRUE(SplitExact("", '\t', one));
  EXPECT_EQ(one[0], "");
}

/// ParseDouble's historical definition: strtod over a NUL-terminated copy,
/// accepted only when it consumes every byte of a field under 64 bytes.
bool BareStrtod(std::string_view s, double& out) {
  char buf[64];
  if (s.size() >= sizeof(buf)) return false;
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + s.size();
}

void ExpectStrtodParity(std::string_view s) {
  double want = 0.0;
  double got = 0.0;
  const bool want_ok = BareStrtod(s, want);
  const bool got_ok = ParseDouble(s, got);
  ASSERT_EQ(got_ok, want_ok) << '"' << s << '"';
  if (want_ok) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << '"' << s << '"';
  }
}

TEST(ParseDouble, StrtodParityOnEdgeStrings) {
  const std::string digits63 = "1." + std::string(61, '5');
  const std::string digits64 = "1." + std::string(62, '5');
  ASSERT_EQ(digits63.size(), 63u);
  ASSERT_EQ(digits64.size(), 64u);
  const std::vector<std::string> edges = {
      "+1", " 1", "0x1p3", "1e400", "-1e400", "1e-310", "1e-400", "nan", "-nan",
      "nan(123)", "NaN", "inf", "-inf", "infinity", "-0", "1.", ".5", "", " ",
      "1 ", "1e", "1e+", "0x", "--1", "1.5", "12.375", "4.9e-324", "1,5",
      digits63, digits64};
  for (const std::string& s : edges) {
    ExpectStrtodParity(s);
  }
  double v = 0.0;
  EXPECT_TRUE(ParseDouble(digits63, v));
  EXPECT_FALSE(ParseDouble(digits64, v));
  EXPECT_TRUE(ParseDouble("0x1p3", v));
  EXPECT_EQ(v, 8.0);
  EXPECT_TRUE(ParseDouble("", v));  // strtod consumes nothing of nothing
  EXPECT_EQ(v, 0.0);
}

TEST(ParseDouble, StrtodParityOnRandomFields) {
  static constexpr char kAlphabet[] = "0123456789.eE+-xXpPinfaINFA ";
  std::mt19937_64 rng(2020);
  for (int trial = 0; trial < 200'000; ++trial) {
    std::string s(rng() % 12, '0');
    for (char& c : s) c = kAlphabet[rng() % (sizeof kAlphabet - 1)];
    ExpectStrtodParity(s);
  }
}

TEST(Join, RoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(ToLower("Zoom.US"), "zoom.us");
  EXPECT_EQ(ToLower("already"), "already");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(StartsWith("facebook.com", "face"));
  EXPECT_FALSE(StartsWith("face", "facebook"));
  EXPECT_TRUE(EndsWith("cdn.tiktokv.com", ".com"));
  EXPECT_FALSE(EndsWith(".com", "cdn.com"));
}

TEST(DomainMatches, ExactAndSubdomain) {
  EXPECT_TRUE(DomainMatches("zoom.us", "zoom.us"));
  EXPECT_TRUE(DomainMatches("us04web.zoom.us", "zoom.us"));
  EXPECT_TRUE(DomainMatches("a.b.c.zoom.us", "zoom.us"));
}

TEST(DomainMatches, RejectsSuffixWithoutLabelBoundary) {
  // The classic signature pitfall the paper's method must avoid.
  EXPECT_FALSE(DomainMatches("notzoom.us", "zoom.us"));
  EXPECT_FALSE(DomainMatches("zoom.us.evil.com", "zoom.us"));
  EXPECT_FALSE(DomainMatches("us", "zoom.us"));
}

TEST(LastLabels, Extraction) {
  EXPECT_EQ(LastLabels("a.b.facebook.com", 2), "facebook.com");
  EXPECT_EQ(LastLabels("facebook.com", 2), "facebook.com");
  EXPECT_EQ(LastLabels("com", 2), "com");
  EXPECT_EQ(LastLabels("x.y.z", 1), "z");
  EXPECT_EQ(LastLabels("x.y.z", 0), "");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1500), "1.50 KB");
  EXPECT_EQ(FormatBytes(2.5e9), "2.50 GB");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(10.0, 0), "10");
}

TEST(ErrnoString, KnownErrnosAreNonEmptyAndDistinct) {
  const std::string enoent = ErrnoString(ENOENT);
  const std::string eacces = ErrnoString(EACCES);
  EXPECT_FALSE(enoent.empty());
  EXPECT_FALSE(eacces.empty());
  EXPECT_NE(enoent, eacces);
}

// std::strerror shares one static buffer, so concurrent formatting from
// ParallelFor worker threads (where IoError / store::Error messages are
// built) could interleave messages. ErrnoString must return each thread its
// own errno's text regardless of what the other threads are formatting.
TEST(ErrnoString, ConcurrentCallsDoNotInterleave) {
  static constexpr int kErrnos[] = {ENOENT, EACCES, EINVAL, ENOMEM};
  std::array<std::string, std::size(kErrnos)> expected;
  for (std::size_t i = 0; i < std::size(kErrnos); ++i) {
    expected[i] = ErrnoString(kErrnos[i]);
  }
  std::array<int, std::size(kErrnos)> mismatches{};
  {
    std::vector<std::thread> threads;
    threads.reserve(std::size(kErrnos));
    for (std::size_t i = 0; i < std::size(kErrnos); ++i) {
      threads.emplace_back([i, &expected, &mismatches] {
        for (int round = 0; round < 1000; ++round) {
          if (ErrnoString(kErrnos[i]) != expected[i]) ++mismatches[i];
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < std::size(kErrnos); ++i) {
    EXPECT_EQ(mismatches[i], 0) << "errno " << kErrnos[i];
  }
}

}  // namespace
}  // namespace lockdown::util
