#include "sketch/reservoir.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace lockdown::sketch {
namespace {

std::vector<ReservoirSample::Entry> Entries(const ReservoirSample& sample) {
  return sample.SortedEntries();
}

void ExpectSameEntries(const ReservoirSample& a, const ReservoirSample& b) {
  const auto ea = Entries(a);
  const auto eb = Entries(b);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].priority, eb[i].priority);
    EXPECT_EQ(ea[i].key, eb[i].key);
    EXPECT_DOUBLE_EQ(ea[i].value, eb[i].value);
  }
}

TEST(ReservoirSample, RejectsZeroCapacity) {
  EXPECT_THROW(ReservoirSample::Seeded(0, 1), std::invalid_argument);
}

TEST(ReservoirSample, ExactBelowCapacity) {
  auto sample = ReservoirSample::Seeded(100, 1);
  for (std::uint64_t i = 0; i < 60; ++i) {
    sample.Add(i, static_cast<double>(i) * 1.5);
  }
  EXPECT_TRUE(sample.exact());
  EXPECT_EQ(sample.seen(), 60u);
  const auto values = sample.Values();
  ASSERT_EQ(values.size(), 60u);
  // Values() sorts by item key, so the population comes back in key order.
  for (std::uint64_t i = 0; i < 60; ++i) {
    EXPECT_DOUBLE_EQ(values[i], static_cast<double>(i) * 1.5);
  }
}

TEST(ReservoirSample, CapsAtCapacity) {
  auto sample = ReservoirSample::Seeded(32, 2);
  for (std::uint64_t i = 0; i < 10000; ++i) sample.Add(i, 1.0);
  EXPECT_FALSE(sample.exact());
  EXPECT_EQ(sample.size(), 32u);
  EXPECT_EQ(sample.seen(), 10000u);
}

TEST(ReservoirSample, OrderIndependent) {
  // The kept set is a function of the key set — feeding the same items in
  // forward, reverse, and interleaved order must give identical entries.
  const auto key = DeriveKey(77, 0);
  ReservoirSample forward(50, key);
  ReservoirSample reverse(50, key);
  ReservoirSample strided(50, key);
  const std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    forward.Add(i, static_cast<double>(i));
    reverse.Add(n - 1 - i, static_cast<double>(n - 1 - i));
  }
  for (std::uint64_t phase = 0; phase < 7; ++phase) {
    for (std::uint64_t i = phase; i < n; i += 7) {
      strided.Add(i, static_cast<double>(i));
    }
  }
  ExpectSameEntries(forward, reverse);
  ExpectSameEntries(forward, strided);
}

TEST(ReservoirSample, UniformityChiSquaredAcrossSeeds) {
  // Sample k=200 of n=2000 keys, repeating over independent seeds, and
  // count how often each key bucket is selected. Under uniformity the
  // bucket counts follow a multinomial whose chi-squared statistic (with
  // 9 degrees of freedom over 10 buckets) should stay far below extreme
  // quantiles. Threshold 33.7 is the 99.99th percentile of chi2(9): a
  // biased selector (e.g. favouring low keys) blows past it immediately.
  constexpr std::uint64_t kKeys = 2000;
  constexpr std::size_t kCapacity = 200;
  constexpr int kSeeds = 64;
  constexpr std::size_t kBuckets = 10;
  std::vector<double> bucket_counts(kBuckets, 0.0);
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto sample = ReservoirSample::Seeded(kCapacity, seed);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      sample.Add(i, 0.0);
    }
    for (const auto& entry : sample.SortedEntries()) {
      bucket_counts[entry.key / (kKeys / kBuckets)] += 1.0;
    }
  }
  const double expected =
      static_cast<double>(kSeeds) * kCapacity / kBuckets;
  double chi2 = 0.0;
  for (const double observed : bucket_counts) {
    const double diff = observed - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 33.7) << "selection is not uniform over keys";
}

TEST(ReservoirSample, DuplicateKeysRetainedOrderIndependently) {
  const auto key = DeriveKey(31, 0);
  ReservoirSample ab(8, key);
  ReservoirSample ba(8, key);
  ab.Add(5, 1.0);
  ab.Add(5, 2.0);
  ba.Add(5, 2.0);
  ba.Add(5, 1.0);
  ExpectSameEntries(ab, ba);
  ASSERT_EQ(ab.size(), 2u);
  // Under eviction pressure the duplicates still resolve identically in
  // either order: value bits break the tie in the total order.
  ReservoirSample tight_ab(1, key);
  ReservoirSample tight_ba(1, key);
  tight_ab.Add(5, 1.0);
  tight_ab.Add(5, 2.0);
  tight_ba.Add(5, 2.0);
  tight_ba.Add(5, 1.0);
  ExpectSameEntries(tight_ab, tight_ba);
  ASSERT_EQ(tight_ab.size(), 1u);
  EXPECT_DOUBLE_EQ(tight_ab.Values()[0], 1.0);
}

TEST(ReservoirSample, MemoryBytesCoversEntries) {
  auto sample = ReservoirSample::Seeded(64, 1);
  for (std::uint64_t i = 0; i < 64; ++i) sample.Add(i, 0.0);
  EXPECT_GE(sample.MemoryBytes(), 64 * sizeof(ReservoirSample::Entry));
}

}  // namespace
}  // namespace lockdown::sketch
