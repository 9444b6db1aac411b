// Kernel suite: every kernel in query/kernels.h is checked against a
// one-line reference written here with standard algorithms, on random and
// adversarial inputs, and against hand-computed fixtures.
//
// Adversarial shapes: empty inputs, every length through a few dozen plus
// larger blocks (TailLengths), unaligned base pointers (the kernels promise
// no alignment requirement), all-match and none-match masks, and bound
// extremes (0, UINT32_MAX). The fixtures assert absolute expected values, so
// a bug shared by a kernel and its reference still gets caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "query/kernels.h"

namespace lockdown::query {
namespace {

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// Empty, every size through 40, and larger blocks with every small residue
/// around a power of two.
std::vector<std::size_t> TailLengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 40; ++n) lens.push_back(n);
  for (std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                        std::size_t{127}, std::size_t{1000}, std::size_t{4096},
                        std::size_t{4097}}) {
    lens.push_back(n);
  }
  return lens;
}

class KernelsDiffTest : public ::testing::Test {
 protected:
  std::mt19937_64 rng_{20200316};

  std::vector<std::uint32_t> RandomU32(std::size_t n, std::uint32_t max) {
    std::uniform_int_distribution<std::uint32_t> dist(0, max);
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = dist(rng_);
    return v;
  }
  std::vector<std::uint64_t> RandomU64(std::size_t n) {
    std::uniform_int_distribution<std::uint64_t> dist;
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = dist(rng_);
    return v;
  }
  std::vector<std::uint8_t> RandomMask(std::size_t n, double p_set) {
    std::bernoulli_distribution dist(p_set);
    std::vector<std::uint8_t> m(n);
    // Nonzero means "set": use varied nonzero values, not just 1, to catch
    // implementations that test for == 1 instead of != 0.
    std::uniform_int_distribution<int> val(1, 255);
    for (auto& x : m) x = dist(rng_) ? static_cast<std::uint8_t>(val(rng_)) : 0;
    return m;
  }
};

/// Reference: sum of v[i] over set mask bytes and lo <= ts[i] < hi (a null
/// ts means no window). Full-range u64 values make it wrap like the kernels.
std::uint64_t RefSum(const std::uint32_t* ts, const std::uint64_t* v,
                     const std::uint8_t* mask, std::size_t n, std::uint32_t lo,
                     std::uint32_t hi) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool in_window = ts == nullptr || (ts[i] >= lo && ts[i] < hi);
    if (mask[i] != 0 && in_window) sum += v[i];
  }
  return sum;
}

TEST_F(KernelsDiffTest, CountLessIsLowerBoundRankOnSortedInput) {
  // The property the figure passes rely on: on a device's sorted start
  // slice, the std::lower_bound rank is the number of starts below the
  // bound, so [lo, hi) windows come from two binary searches. Values from a
  // small range make runs of duplicates sit exactly at most bounds.
  for (const std::size_t n : TailLengths()) {
    auto v = RandomU32(n, 50);
    std::sort(v.begin(), v.end());
    std::vector<std::uint32_t> bounds = {0, 1, 25, 50, 51, kU32Max};
    bounds.insert(bounds.end(), v.begin(), v.end());
    for (const std::uint32_t bound : bounds) {
      const auto linear = static_cast<std::size_t>(
          std::count_if(v.begin(), v.end(),
                        [bound](std::uint32_t x) { return x < bound; }));
      ASSERT_EQ(static_cast<std::size_t>(
                    std::lower_bound(v.begin(), v.end(), bound) - v.begin()),
                linear)
          << "n=" << n << " bound=" << bound;
    }
  }
}

TEST_F(KernelsDiffTest, MaskedSumMatchesOnAllMaskDensities) {
  for (const std::size_t n : TailLengths()) {
    const auto v = RandomU64(n);
    for (const double density : {0.0, 0.03, 0.5, 0.97, 1.0}) {
      const auto mask = RandomMask(n, density);
      ASSERT_EQ(MaskedSumU64(v.data(), mask.data(), n),
                RefSum(nullptr, v.data(), mask.data(), n, 0, 0))
          << "n=" << n << " density=" << density;
      // Unaligned base pointers.
      for (std::size_t off = 1; off < std::min<std::size_t>(4, n); ++off) {
        ASSERT_EQ(MaskedSumU64(v.data() + off, mask.data() + off, n - off),
                  RefSum(nullptr, v.data() + off, mask.data() + off, n - off,
                         0, 0))
            << "n=" << n << " off=" << off;
      }
    }
  }
}

TEST_F(KernelsDiffTest, MaskedRangeSumMatchesOnWindowExtremes) {
  for (const std::size_t n : TailLengths()) {
    const auto ts = RandomU32(n, 10000);
    const auto bytes = RandomU64(n);
    const auto mask = RandomMask(n, 0.7);
    const std::uint32_t windows[][2] = {
        {0, 0},          {0, 1},      {0, kU32Max}, {5000, 5000},
        {2500, 7500},    {9999, 10001}, {kU32Max, kU32Max}, {10000, 0},
    };
    for (const auto& w : windows) {
      ASSERT_EQ(MaskedRangeSumU64(ts.data(), bytes.data(), mask.data(), n,
                                  w[0], w[1]),
                RefSum(ts.data(), bytes.data(), mask.data(), n, w[0], w[1]))
          << "n=" << n << " window=[" << w[0] << "," << w[1] << ")";
    }
    for (std::size_t off = 1; off < std::min<std::size_t>(4, n); ++off) {
      ASSERT_EQ(MaskedRangeSumU64(ts.data() + off, bytes.data() + off,
                                  mask.data() + off, n - off, 2500, 7500),
                RefSum(ts.data() + off, bytes.data() + off, mask.data() + off,
                       n - off, 2500, 7500))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST_F(KernelsDiffTest, FlagMaskMatchesOnRandomIdsAndLuts) {
  for (const std::size_t n : TailLengths()) {
    for (const std::size_t lut_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{256}, std::size_t{5000}}) {
      std::uniform_int_distribution<int> bit(0, 1);
      const ByteLut lut(lut_size, [&](std::size_t) { return bit(rng_) != 0; });
      const auto ids =
          RandomU32(n, static_cast<std::uint32_t>(lut_size - 1));
      for (std::size_t off = 0; off < std::min<std::size_t>(4, n + 1); ++off) {
        std::vector<std::uint8_t> out(n - off, 0xAA);
        FlagMaskU8(ids.data() + off, n - off, lut.data(), out.data());
        for (std::size_t i = 0; i < n - off; ++i) {
          ASSERT_EQ(out[i], lut.data()[ids[off + i]] != 0 ? 1 : 0)
              << "n=" << n << " lut=" << lut_size << " off=" << off
              << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelsDiffTest, DaySumsAndMarkDaysMatch) {
  constexpr std::uint32_t kDaySeconds = 86400;
  for (const std::size_t n : TailLengths()) {
    // Timestamps run past num_days (and to the u32 maximum) so the drop of
    // out-of-range days is exercised.
    auto ts = RandomU32(n, 40 * kDaySeconds);
    if (n > 0) ts[n - 1] = kU32Max;
    const auto bytes = RandomU64(n);
    const auto mask = RandomMask(n, 0.6);
    for (const std::uint32_t num_days : {0u, 1u, 30u}) {
      std::vector<std::uint64_t> want_all(num_days, 0);
      std::vector<std::uint64_t> want_masked(num_days, 0);
      std::vector<std::uint8_t> want_days(num_days, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t day = ts[i] / kDaySeconds;
        if (day >= num_days) continue;
        want_all[day] += bytes[i];
        if (mask[i] != 0) want_masked[day] += bytes[i];
        want_days[day] = 1;
      }

      std::vector<std::uint64_t> sums(num_days, 0);
      DaySumsU64(ts.data(), bytes.data(), nullptr, n, kDaySeconds, sums.data(),
                 num_days);
      ASSERT_EQ(sums, want_all) << "n=" << n << " days=" << num_days;

      std::fill(sums.begin(), sums.end(), 0);
      DaySumsU64(ts.data(), bytes.data(), mask.data(), n, kDaySeconds,
                 sums.data(), num_days);
      ASSERT_EQ(sums, want_masked) << "n=" << n << " days=" << num_days;

      std::vector<std::uint8_t> days(num_days, 0);
      MarkDaysU8(ts.data(), n, kDaySeconds, days.data(), num_days);
      ASSERT_EQ(days, want_days) << "n=" << n << " days=" << num_days;
    }
  }
}

// --- Fixtures: hand-computed absolute values --------------------------------

TEST(KernelFixtures, CountLess) {
  // A device's sorted start slice with a run of duplicates at the bound.
  const std::vector<std::uint32_t> v = {1, 1, 2, 3, 4, 4, 4, 9};
  const auto rank = [&v](std::uint32_t bound) {
    return std::lower_bound(v.begin(), v.end(), bound) - v.begin();
  };
  EXPECT_EQ(rank(0), 0);
  EXPECT_EQ(rank(1), 0);
  EXPECT_EQ(rank(4), 4);   // 1,1,2,3
  EXPECT_EQ(rank(5), 7);
  EXPECT_EQ(rank(10), 8);
  EXPECT_EQ(rank(kU32Max), 8);
}

TEST(KernelFixtures, MaskedSums) {
  const std::uint64_t v[] = {10, 20, 30, 40};
  const std::uint8_t mask[] = {1, 0, 255, 0};
  const std::uint32_t ts[] = {5, 15, 25, 35};
  EXPECT_EQ(MaskedSumU64(v, mask, 4), 40u);
  EXPECT_EQ(MaskedSumU64(nullptr, nullptr, 0), 0u);
  EXPECT_EQ(MaskedRangeSumU64(ts, v, mask, 4, 0, 26), 40u);
  EXPECT_EQ(MaskedRangeSumU64(ts, v, mask, 4, 10, 26), 30u);
  EXPECT_EQ(MaskedRangeSumU64(ts, v, mask, 4, 26, 10), 0u);
  const std::uint64_t wrap[] = {std::numeric_limits<std::uint64_t>::max(), 2};
  const std::uint8_t both[] = {1, 1};
  EXPECT_EQ(MaskedSumU64(wrap, both, 2), 1u);
}

TEST(KernelFixtures, DayScatter) {
  const std::uint32_t ts[] = {0, 9, 10, 19, 20, 29, 1000};  // day_seconds=10
  const std::uint64_t bytes[] = {1, 2, 4, 8, 16, 32, 64};
  std::uint64_t sums[3] = {0, 0, 0};
  DaySumsU64(ts, bytes, nullptr, 7, 10, sums, 3);  // ts=1000 -> day 100, dropped
  EXPECT_EQ(sums[0], 3u);
  EXPECT_EQ(sums[1], 12u);
  EXPECT_EQ(sums[2], 48u);
  const std::uint8_t mask[] = {0, 1, 1, 0, 0, 7, 1};
  std::uint64_t masked[3] = {0, 0, 0};
  DaySumsU64(ts, bytes, mask, 7, 10, masked, 3);
  EXPECT_EQ(masked[0], 2u);
  EXPECT_EQ(masked[1], 4u);
  EXPECT_EQ(masked[2], 32u);
  std::uint8_t days[3] = {0, 0, 0};
  MarkDaysU8(ts + 4, 3, 10, days, 3);  // ts 20,29 -> day 2; 1000 dropped
  EXPECT_EQ(days[0], 0);
  EXPECT_EQ(days[1], 0);
  EXPECT_EQ(days[2], 1);
}

}  // namespace
}  // namespace lockdown::query
