// Fixed-bin windowed aggregator.
//
// A curve over a fixed, known-ahead grid (24 hours, 168 hours of week, 121
// days) needs no approximation at all — just a dense vector of doubles with
// elementwise merge, seeded-free, mergeable and memory-accountable like the
// probabilistic sketches. No figure uses it today: the figure engine
// (core/study.h) keeps its fixed grids as per-chunk integer arrays.
//
// Exactness: when every Add is integer-valued (byte counts) the accumulated
// sums stay below 2^53 and double addition is exact, hence associative and
// commutative — bit-identical regardless of order. Fractional adds are
// reproduced bit-identically only in a fixed summation order, e.g. per-chunk
// grids folded in chunk order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sketch/sketch.h"

namespace lockdown::sketch {

class WindowedAggregator {
 public:
  /// A window of `num_bins` zero-initialised bins. Throws
  /// std::invalid_argument if num_bins is zero.
  explicit WindowedAggregator(std::size_t num_bins);

  /// Adds `v` to `bin`; out-of-range bins are ignored (the streaming engine
  /// clamps flows to the study window before binning, this is a backstop).
  void Add(std::size_t bin, double v) noexcept;

  /// Elementwise sum. Throws MergeError unless bin counts match.
  void Merge(const WindowedAggregator& other);

  [[nodiscard]] double at(std::size_t bin) const { return bins_.at(bin); }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return bins_;
  }
  [[nodiscard]] std::size_t num_bins() const noexcept { return bins_.size(); }
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return bins_.size() * sizeof(double) + sizeof(*this);
  }

 private:
  std::vector<double> bins_;
};

}  // namespace lockdown::sketch
