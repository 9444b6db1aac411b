// MemoryPlan: turns a byte budget into concrete sketch parameters.
//
// The streaming study keeps a fixed inventory of sketches (src/stream/
// streaming_study.h documents the full list): 487 HyperLogLogs (121 days x 4
// reporting classes for Figure 1 plus three distinct-site estimators), 1680
// reservoir samples (Figures 2, 3, 4, 6 and 7), one count-min sketch for
// per-domain byte volumes, and the engine's exact integer grids. Given a
// budget, the plan splits it
//   ~1/4 to the HyperLogLogs      -> precision p (2^p bytes each)
//   ~1/2 to the reservoirs        -> capacity k (k entries, 24 bytes + slack)
//   ~1/16 to the count-min sketch -> width (depth fixed at 4)
// with the remainder absorbing the integer grids (one per pass chunk). Every
// dial has a floor (the sketches stop being useful below it), so budgets
// under ~1.5 MiB are rejected rather than silently degraded.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lockdown::stream {

struct MemoryPlan {
  std::size_t budget_bytes = 0;
  int hll_precision = 0;            ///< p; each HLL holds 2^p registers
  std::size_t reservoir_capacity = 0;  ///< k entries per reservoir
  std::size_t cms_width = 0;
  std::size_t cms_depth = 0;

  /// Sketch counts the plan is sized against (see streaming_study.h).
  static constexpr std::size_t kNumHlls = 487;
  static constexpr std::size_t kNumReservoirs = 1680;

  static constexpr int kMinPrecision = 6;
  static constexpr int kMaxPrecision = 14;
  static constexpr std::size_t kMinReservoirCapacity = 16;
  static constexpr std::size_t kMaxReservoirCapacity = 8192;
  static constexpr std::size_t kMinCmsWidth = 272;  ///< epsilon = e/272 ~ 1%
  static constexpr std::size_t kMaxCmsWidth = std::size_t{1} << 20;

  /// Sizes every sketch family for `budget_bytes`. Throws
  /// std::invalid_argument when the budget cannot hold even the floor
  /// configuration.
  [[nodiscard]] static MemoryPlan ForBudget(std::size_t budget_bytes);

  /// Worst-case bytes of sketch state under this plan (all reservoirs full,
  /// with vector-growth slack), excluding the fixed grids.
  [[nodiscard]] std::size_t EstimatedSketchBytes() const noexcept;

  /// The a-priori accuracy the plan buys.
  [[nodiscard]] double HllRelativeStandardError() const noexcept;
  [[nodiscard]] double CmsEpsilon() const noexcept;
  [[nodiscard]] double CmsDelta() const noexcept;
};

}  // namespace lockdown::stream
