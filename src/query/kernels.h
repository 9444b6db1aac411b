// Columnar query kernels for the hot figure loops: domain-signature matching,
// masked byte accumulation and per-day scatter. They are plain loops over
// the dense FlowColumns; at campus scale the figure passes are bound by
// memory traffic and scatter, not arithmetic, so there is one portable
// implementation.
//
// Determinism contract: every kernel is a pure function of its operands with
// integer (u64) accumulation, so results are exact and independent of
// chunking. Figure passes keep the chunk-ordered ParallelFor decomposition
// and feed each chunk/device slice through these kernels, converting exact
// integer sums to double only at the figure boundary (exact below 2^53,
// which campus-scale day/device sums never approach).
//
// Pointer operands need no particular alignment; `n == 0` is valid for every
// kernel. Time-range selection over a device's sorted start offsets is
// std::lower_bound at the call site, not a kernel (see DESIGN §3.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lockdown::query {

/// Sum of v[i] where mask[i] != 0 (wrap-around on overflow, as in plain C++).
[[nodiscard]] inline std::uint64_t MaskedSumU64(const std::uint64_t* v,
                                                const std::uint8_t* mask,
                                                std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) sum += v[i];
  }
  return sum;
}

/// Sum of bytes[i] where mask[i] != 0 and lo <= ts[i] < hi. Fuses the
/// time-range selection with the masked accumulation for flat (unsorted)
/// flow scans.
[[nodiscard]] inline std::uint64_t MaskedRangeSumU64(
    const std::uint32_t* ts, const std::uint64_t* bytes,
    const std::uint8_t* mask, std::size_t n, std::uint32_t lo,
    std::uint32_t hi) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] != 0 && ts[i] >= lo && ts[i] < hi) sum += bytes[i];
  }
  return sum;
}

/// Domain-signature matching: out[i] = lut[ids[i]] != 0 ? 1 : 0. Every id
/// must index the lut.
inline void FlagMaskU8(const std::uint32_t* ids, std::size_t n,
                       const std::uint8_t* lut, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lut[ids[i]] != 0 ? std::uint8_t{1} : std::uint8_t{0};
  }
}

/// sums[ts[i] / day_seconds] += bytes[i] where mask[i] != 0 and the day is
/// < num_days (out-of-range days are dropped, matching the figures'
/// day-window guards). A null mask selects every element.
inline void DaySumsU64(const std::uint32_t* ts, const std::uint64_t* bytes,
                       const std::uint8_t* mask, std::size_t n,
                       std::uint32_t day_seconds, std::uint64_t* sums,
                       std::uint32_t num_days) {
  for (std::size_t i = 0; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    const std::uint32_t day = ts[i] / day_seconds;
    if (day < num_days) sums[day] += bytes[i];
  }
}

/// days[ts[i] / day_seconds] = 1 for days < num_days.
inline void MarkDaysU8(const std::uint32_t* ts, std::size_t n,
                       std::uint32_t day_seconds, std::uint8_t* days,
                       std::uint32_t num_days) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t day = ts[i] / day_seconds;
    if (day < num_days) days[day] = 1;
  }
}

/// A 0/1 byte lookup table over dense ids (domain ids, device indices).
class ByteLut {
 public:
  template <typename Pred>
  ByteLut(std::size_t size, Pred&& pred) : bytes_(size, 0) {
    for (std::size_t i = 0; i < size; ++i) {
      bytes_[i] = pred(i) ? std::uint8_t{1} : std::uint8_t{0};
    }
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes_.data(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace lockdown::query
