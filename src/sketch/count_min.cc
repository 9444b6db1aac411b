#include "sketch/count_min.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lockdown::sketch {

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed, std::uint64_t stream)
    : width_(width), depth_(depth) {
  if (width == 0 || depth == 0) {
    throw std::invalid_argument("CountMinSketch width/depth must be positive");
  }
  row_keys_.reserve(depth);
  for (std::size_t row = 0; row < depth; ++row) {
    row_keys_.push_back(DeriveKey(seed, stream + row));
  }
  cells_.assign(width * depth, 0);
}

CountMinSketch CountMinSketch::FromErrorBound(double epsilon, double delta,
                                              std::uint64_t seed,
                                              std::uint64_t stream) {
  if (!(epsilon > 0.0 && epsilon < 1.0) || !(delta > 0.0 && delta < 1.0)) {
    throw std::invalid_argument(
        "CountMinSketch error bounds must lie in (0, 1)");
  }
  const auto width =
      static_cast<std::size_t>(std::ceil(std::exp(1.0) / epsilon));
  const auto depth = static_cast<std::size_t>(std::ceil(-std::log(delta)));
  return CountMinSketch(width, std::max<std::size_t>(depth, 1), seed, stream);
}

void CountMinSketch::Add(std::uint64_t key, std::uint64_t count) noexcept {
  for (std::size_t row = 0; row < depth_; ++row) {
    const std::size_t col = util::SipHash24(row_keys_[row], key) % width_;
    cells_[row * width_ + col] += count;
  }
  total_ += count;
}

std::uint64_t CountMinSketch::Estimate(std::uint64_t key) const noexcept {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t row = 0; row < depth_; ++row) {
    const std::size_t col = util::SipHash24(row_keys_[row], key) % width_;
    best = std::min(best, cells_[row * width_ + col]);
  }
  return best;
}

double CountMinSketch::epsilon() const noexcept {
  return std::exp(1.0) / static_cast<double>(width_);
}

double CountMinSketch::delta() const noexcept {
  return std::exp(-static_cast<double>(depth_));
}

double CountMinSketch::FillRatio() const noexcept {
  if (cells_.empty()) return 0.0;
  std::size_t nonzero = 0;
  for (const std::uint64_t c : cells_) nonzero += c != 0;
  return static_cast<double>(nonzero) / static_cast<double>(cells_.size());
}

}  // namespace lockdown::sketch
