#include "analysis/timeseries.h"

#include <algorithm>

namespace lockdown::analysis {

void DailySeries::Add(util::Timestamp ts, double value) noexcept {
  AddDay(util::StudyCalendar::DayIndex(ts), value);
}

void DailySeries::AddDay(int day, double value) noexcept {
  if (day < 0 || day >= num_days()) return;
  values_[static_cast<std::size_t>(day)] += value;
}

DailySeries DailySeries::MovingAverage(int window) const {
  DailySeries out(num_days());
  if (window <= 1) {
    out.values_ = values_;
    return out;
  }
  const int half = window / 2;
  for (int d = 0; d < num_days(); ++d) {
    const int lo = std::max(0, d - half);
    const int hi = std::min(num_days() - 1, d + (window - 1 - half));
    double sum = 0.0;
    for (int i = lo; i <= hi; ++i) sum += values_[static_cast<std::size_t>(i)];
    out.values_[static_cast<std::size_t>(d)] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

double DailySeries::SumRange(int first_day, int last_day) const noexcept {
  const int lo = std::max(0, first_day);
  const int hi = std::min(num_days() - 1, last_day);
  double sum = 0.0;
  for (int d = lo; d <= hi; ++d) sum += values_[static_cast<std::size_t>(d)];
  return sum;
}

std::optional<int> HourOfWeekSeries::BinOf(util::Timestamp ts,
                                           util::Timestamp week_anchor) noexcept {
  const util::Timestamp delta = ts - week_anchor;
  if (delta < 0 || delta >= 7 * util::kSecondsPerDay) return std::nullopt;
  return static_cast<int>(delta / util::kSecondsPerHour);
}

void HourOfWeekSeries::AddBin(int bin, double value) noexcept {
  if (bin < 0 || bin >= kHours) return;
  values_[static_cast<std::size_t>(bin)] += value;
}

void HourOfWeekSeries::Scale(double denom) noexcept {
  if (denom <= 0.0) return;
  for (double& v : values_) v /= denom;
}

double HourOfWeekSeries::MinPositive() const noexcept {
  double best = 0.0;
  for (double v : values_) {
    if (v > 0.0 && (best == 0.0 || v < best)) best = v;
  }
  return best;
}

}  // namespace lockdown::analysis
