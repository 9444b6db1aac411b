#include "sketch/hll.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lockdown::sketch {
namespace {

TEST(HyperLogLog, RejectsBadPrecision) {
  EXPECT_THROW(HyperLogLog::Seeded(3, 1), std::invalid_argument);
  EXPECT_THROW(HyperLogLog::Seeded(17, 1), std::invalid_argument);
  EXPECT_NO_THROW(HyperLogLog::Seeded(4, 1));
  EXPECT_NO_THROW(HyperLogLog::Seeded(16, 1));
}

TEST(HyperLogLog, EmptyEstimatesZero) {
  EXPECT_DOUBLE_EQ(HyperLogLog::Seeded(12, 7).Estimate(), 0.0);
}

TEST(HyperLogLog, SmallCardinalityIsNearExact) {
  // Linear counting regime: tiny sets should be estimated almost exactly.
  auto hll = HyperLogLog::Seeded(12, 42);
  for (std::uint64_t i = 0; i < 100; ++i) hll.Add(i);
  EXPECT_NEAR(hll.Estimate(), 100.0, 3.0);
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  auto hll = HyperLogLog::Seeded(12, 42);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 200; ++i) hll.Add(i);
  }
  EXPECT_NEAR(hll.Estimate(), 200.0, 6.0);
}

TEST(HyperLogLog, RelativeErrorWithinFourSigmaAcrossSeeds) {
  // Property: for each of several seeds and cardinalities, the estimate
  // lands within 4 standard errors of the truth. 4 sigma per trial keeps
  // the aggregate false-failure probability negligible.
  const std::vector<std::uint64_t> cardinalities = {1000, 10000, 100000};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::uint64_t n : cardinalities) {
      auto hll = HyperLogLog::Seeded(12, seed);
      // Distinct per-(seed, n) universes so trials are independent.
      for (std::uint64_t i = 0; i < n; ++i) {
        hll.Add((seed << 40) ^ (n << 20) ^ i);
      }
      const double err =
          std::abs(hll.Estimate() - static_cast<double>(n)) /
          static_cast<double>(n);
      EXPECT_LT(err, 4.0 * hll.RelativeStandardError())
          << "seed=" << seed << " n=" << n
          << " estimate=" << hll.Estimate();
    }
  }
}

TEST(HyperLogLog, DeterministicAcrossInstances) {
  auto a = HyperLogLog::Seeded(10, 9);
  auto b = HyperLogLog::Seeded(10, 9);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    a.Add(i * 2654435761u);
    b.Add(i * 2654435761u);
  }
  ASSERT_EQ(a.registers().size(), b.registers().size());
  for (std::size_t i = 0; i < a.registers().size(); ++i) {
    EXPECT_EQ(a.registers()[i], b.registers()[i]);
  }
}

TEST(HyperLogLog, MemoryBytesScalesWithPrecision) {
  EXPECT_GE(HyperLogLog::Seeded(12, 1).MemoryBytes(), std::size_t{4096});
  EXPECT_LT(HyperLogLog::Seeded(6, 1).MemoryBytes(), std::size_t{4096});
}

}  // namespace
}  // namespace lockdown::sketch
