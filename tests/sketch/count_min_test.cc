#include "sketch/count_min.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lockdown::sketch {
namespace {

TEST(CountMinSketch, RejectsDegenerateShapes) {
  EXPECT_THROW(CountMinSketch(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(CountMinSketch(16, 0, 1), std::invalid_argument);
  EXPECT_THROW(CountMinSketch::FromErrorBound(0.0, 0.01, 1),
               std::invalid_argument);
  EXPECT_THROW(CountMinSketch::FromErrorBound(0.01, 1.5, 1),
               std::invalid_argument);
}

TEST(CountMinSketch, FromErrorBoundSizesClassically) {
  const auto cms = CountMinSketch::FromErrorBound(0.01, 0.01, 1);
  EXPECT_EQ(cms.width(), 272u);  // ceil(e / 0.01)
  EXPECT_EQ(cms.depth(), 5u);    // ceil(ln 100)
  EXPECT_LE(cms.epsilon(), 0.01);
  EXPECT_LE(cms.delta(), 0.01);
}

TEST(CountMinSketch, NeverUnderestimates) {
  // One-sided error is the defining property: check it for every key under
  // heavy collision pressure (tiny sketch, many keys, several seeds).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    CountMinSketch cms(32, 4, seed);
    std::map<std::uint64_t, std::uint64_t> exact;
    util::Pcg32 rng(seed, 99);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng.Next() % 500;
      const std::uint64_t count = 1 + rng.Next() % 1000;
      cms.Add(key, count);
      exact[key] += count;
    }
    for (const auto& [key, count] : exact) {
      EXPECT_GE(cms.Estimate(key), count) << "seed=" << seed;
    }
  }
}

TEST(CountMinSketch, OverestimateWithinEpsilonTotal) {
  // With width sized for epsilon = 0.01, at most a delta fraction of keys
  // may overshoot by more than epsilon * total. Count violations over a
  // sizeable key population and require far fewer than delta would allow.
  auto cms = CountMinSketch::FromErrorBound(0.01, 0.01, 7);
  std::map<std::uint64_t, std::uint64_t> exact;
  util::Pcg32 rng(7, 1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.Next() % 3000;
    cms.Add(key, 1 + rng.Next() % 100);
  }
  // Replay the same stream to build the exact counts.
  util::Pcg32 replay(7, 1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = replay.Next() % 3000;
    exact[key] += 1 + replay.Next() % 100;
  }
  const double bound =
      cms.epsilon() * static_cast<double>(cms.total());
  std::size_t violations = 0;
  for (const auto& [key, count] : exact) {
    if (static_cast<double>(cms.Estimate(key) - count) > bound) ++violations;
  }
  EXPECT_LE(static_cast<double>(violations),
            cms.delta() * static_cast<double>(exact.size()));
}

TEST(CountMinSketch, ExactWhenCollisionFree) {
  // A wide sketch over few keys should be collision-free in at least one
  // row, making every estimate exact.
  CountMinSketch cms(1 << 16, 4, 11);
  for (std::uint64_t key = 0; key < 50; ++key) {
    cms.Add(key, key * 17 + 1);
  }
  for (std::uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(cms.Estimate(key), key * 17 + 1);
  }
}

TEST(CountMinSketch, MemoryBytesCoversCells) {
  CountMinSketch cms(1024, 4, 1);
  EXPECT_GE(cms.MemoryBytes(), 1024u * 4u * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace lockdown::sketch
