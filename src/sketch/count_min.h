// Count-min sketch (Cormode & Muthukrishnan 2005) over uint64 counters.
//
// The streaming study uses it for per-domain byte volumes: an exact counter
// per interned domain grows with the vocabulary; the sketch answers point queries in width*depth fixed
// cells with a one-sided guarantee — estimates never undercount, and
// overshoot by more than epsilon * total with probability at most delta.
//
// Counters are uint64, so Add is exact integer arithmetic: order-independent
// and overflow-free for any realistic byte volume.
#pragma once

#include <cstdint>
#include <vector>

#include "sketch/sketch.h"

namespace lockdown::sketch {

class CountMinSketch {
 public:
  /// `width` cells per row, `depth` independent rows. Each row hashes with
  /// its own SipHash key derived from (seed, stream + row). Throws
  /// std::invalid_argument if either dimension is zero.
  CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed,
                 std::uint64_t stream = 0);

  /// Sizes the sketch for the classic (epsilon, delta) guarantee:
  /// width = ceil(e / epsilon), depth = ceil(ln(1 / delta)).
  [[nodiscard]] static CountMinSketch FromErrorBound(double epsilon,
                                                     double delta,
                                                     std::uint64_t seed,
                                                     std::uint64_t stream = 0);

  void Add(std::uint64_t key, std::uint64_t count) noexcept;

  /// Point query: min over rows. Never less than the true count; at most
  /// true + epsilon() * total() with probability >= 1 - delta().
  [[nodiscard]] std::uint64_t Estimate(std::uint64_t key) const noexcept;

  /// The guarantee implied by the actual dimensions: epsilon = e / width,
  /// delta = exp(-depth).
  [[nodiscard]] double epsilon() const noexcept;
  [[nodiscard]] double delta() const noexcept;

  /// Total weight added (sum of all Add counts).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return cells_.size() * sizeof(std::uint64_t) + sizeof(*this) +
           row_keys_.size() * sizeof(util::SipHashKey);
  }

  /// Fraction of nonzero cells, in [0, 1]. High fill means heavy hash
  /// collision pressure and a looser practical overestimate.
  [[nodiscard]] double FillRatio() const noexcept;

 private:
  std::size_t width_;
  std::size_t depth_;
  std::uint64_t total_ = 0;
  std::vector<util::SipHashKey> row_keys_;
  std::vector<std::uint64_t> cells_;  // row-major depth_ x width_
};

}  // namespace lockdown::sketch
