#include "sketch/hll.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace lockdown::sketch {

namespace {

/// Bias-correction constant alpha_m (Flajolet et al., Fig. 3).
double AlphaM(std::size_t m) noexcept {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision, util::SipHashKey key)
    : precision_(precision), key_(key) {
  if (precision < kMinPrecision || precision > kMaxPrecision) {
    throw std::invalid_argument("HyperLogLog precision must be in [4, 16]");
  }
  registers_.assign(std::size_t{1} << precision, 0);
}

HyperLogLog HyperLogLog::Seeded(int precision, std::uint64_t seed,
                                std::uint64_t stream) {
  return HyperLogLog(precision, DeriveKey(seed, stream));
}

void HyperLogLog::Add(std::uint64_t item) noexcept {
  const std::uint64_t h = util::SipHash24(key_, item);
  const std::size_t index = static_cast<std::size_t>(h >> (64 - precision_));
  // Rank of the first set bit in the remaining 64-p bits, 1-based; an
  // all-zero remainder ranks 64-p+1.
  const std::uint64_t rest = h << precision_;
  const int rank =
      rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1;
  if (registers_[index] < rank) {
    registers_[index] = static_cast<std::uint8_t>(rank);
  }
}

double HyperLogLog::Estimate() const noexcept {
  const auto m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    zeros += reg == 0;
  }
  const double raw = AlphaM(registers_.size()) * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros != 0) {
    // Small-range correction: linear counting over empty registers.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

double HyperLogLog::RelativeStandardError() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

double HyperLogLog::FillRatio() const noexcept {
  if (registers_.empty()) return 0.0;
  std::size_t nonzero = 0;
  for (const std::uint8_t r : registers_) nonzero += r != 0;
  return static_cast<double>(nonzero) / static_cast<double>(registers_.size());
}

}  // namespace lockdown::sketch
