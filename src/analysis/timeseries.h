// Time-series helpers for the daily figures (1, 2, 4, 5, 8).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "util/time.h"

namespace lockdown::analysis {

/// A value per study day (index 0 = the study's first day).
class DailySeries {
 public:
  explicit DailySeries(int num_days = util::StudyCalendar::NumDays())
      : values_(static_cast<std::size_t>(num_days), 0.0) {}

  /// Adds `value` to the day containing `ts`; out-of-window timestamps are
  /// ignored.
  void Add(util::Timestamp ts, double value) noexcept;

  /// Adds to an explicit day index (ignored when out of range).
  void AddDay(int day, double value) noexcept;

  [[nodiscard]] double at(int day) const { return values_.at(static_cast<std::size_t>(day)); }
  [[nodiscard]] int num_days() const noexcept { return static_cast<int>(values_.size()); }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Centred moving average over a window of `window` days (Fig. 8 uses a
  /// 3-day moving average). Edges average over the available days.
  [[nodiscard]] DailySeries MovingAverage(int window) const;

  /// Sum over an inclusive day range, clamped to the series.
  [[nodiscard]] double SumRange(int first_day, int last_day) const noexcept;

 private:
  std::vector<double> values_;
};

/// Per-hour-of-week accumulation for Figure 3. Hour 0 is Thursday 00:00,
/// matching the paper's x-axis (Thursday through Wednesday).
class HourOfWeekSeries {
 public:
  static constexpr int kHours = 7 * 24;

  /// Bin index for a timestamp, given the Thursday 00:00 anchoring the week;
  /// nullopt if ts is outside [anchor, anchor + 7 days).
  [[nodiscard]] static std::optional<int> BinOf(util::Timestamp ts,
                                                util::Timestamp week_anchor) noexcept;

  void AddBin(int bin, double value) noexcept;
  [[nodiscard]] double at(int bin) const { return values_.at(static_cast<std::size_t>(bin)); }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Divides every bin by `denom` (no-op when denom <= 0).
  void Scale(double denom) noexcept;

  /// Smallest strictly-positive bin value; 0 if all bins are zero.
  [[nodiscard]] double MinPositive() const noexcept;

 private:
  std::vector<double> values_ = std::vector<double>(kHours, 0.0);
};

}  // namespace lockdown::analysis
