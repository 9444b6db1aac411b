// HyperLogLog cardinality estimator (Flajolet et al. 2007).
//
// Used by the streaming study for active-device counts (Figure 1) and the
// distinct-sites headline statistic — the quantities the exact study counts
// from per-device key lists whose total grows with the population. A HyperLogLog with 2^p single-byte registers answers the same
// question in fixed space with relative standard error ~1.04/sqrt(2^p).
//
// Determinism: items are hashed with SipHash-2-4 under a key derived from an
// explicit seed, and Add keeps the register-wise maximum, so any order of
// the same items yields bit-identical registers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/sketch.h"

namespace lockdown::sketch {

class HyperLogLog {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 16;

  /// `precision` p in [4, 16] gives m = 2^p registers (m bytes of state).
  /// Throws std::invalid_argument outside that range.
  HyperLogLog(int precision, util::SipHashKey key);

  /// Convenience: key derived from (seed, stream) via DeriveKey.
  [[nodiscard]] static HyperLogLog Seeded(int precision, std::uint64_t seed,
                                          std::uint64_t stream = 0);

  /// Adds one item (callers hash identity into 64 bits; equal values are the
  /// same item).
  void Add(std::uint64_t item) noexcept;

  /// Cardinality estimate with the standard small-range (linear counting)
  /// correction.
  [[nodiscard]] double Estimate() const noexcept;

  /// The sketch's a-priori relative standard error: 1.04 / sqrt(m).
  [[nodiscard]] double RelativeStandardError() const noexcept;

  [[nodiscard]] int precision() const noexcept { return precision_; }
  [[nodiscard]] std::span<const std::uint8_t> registers() const noexcept {
    return registers_;
  }
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return registers_.size() + sizeof(*this);
  }

  /// Fraction of registers holding a nonzero rank, in [0, 1]. A fill ratio
  /// near 0 means the precision budget is oversized for the stream.
  [[nodiscard]] double FillRatio() const noexcept;

 private:
  int precision_;
  util::SipHashKey key_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace lockdown::sketch
