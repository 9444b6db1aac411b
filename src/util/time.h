// Civil-time handling for the measurement study.
//
// The study period (2020-02-01 .. 2020-05-31) is short enough that we model
// all times in a single campus-local timeline with no DST or leap-second
// handling: a Timestamp is a count of seconds since the Unix epoch in campus
// local time. All figures in the paper are plotted in campus local time, so
// this is the natural coordinate system for the reproduction.
#pragma once

#include <cstdint>
#include <string>

namespace lockdown::util {

/// Seconds since the Unix epoch, campus-local timeline.
using Timestamp = std::int64_t;

inline constexpr std::int64_t kSecondsPerMinute = 60;
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerDay = 86400;

/// Day of week. Numbering matches the civil-calendar convention used by the
/// days-from-civil algorithm (Sunday = 0).
enum class Weekday : int {
  kSunday = 0,
  kMonday = 1,
  kTuesday = 2,
  kWednesday = 3,
  kThursday = 4,
  kFriday = 5,
  kSaturday = 6,
};

/// Short English name ("Sun", "Mon", ...).
[[nodiscard]] const char* ToString(Weekday wd) noexcept;

/// A calendar date (proleptic Gregorian).
struct CivilDate {
  int year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend constexpr auto operator<=>(const CivilDate&, const CivilDate&) = default;
};

/// A calendar date plus time-of-day.
struct CivilDateTime {
  CivilDate date;
  int hour = 0;    ///< 0..23
  int minute = 0;  ///< 0..59
  int second = 0;  ///< 0..59

  friend constexpr auto operator<=>(const CivilDateTime&, const CivilDateTime&) = default;
};

/// Days since the Unix epoch for a civil date (Howard Hinnant,
/// "chrono-Compatible Low-Level Date Algorithms"). constexpr, so the study
/// calendar below is a set of compile-time constants.
[[nodiscard]] constexpr std::int64_t DaysFromCivil(CivilDate d) noexcept {
  auto y = static_cast<std::int64_t>(d.year);
  const auto m = static_cast<unsigned>(d.month);
  const auto dd = static_cast<unsigned>(d.day);
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<unsigned>(y - era * 400);              // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + dd - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;         // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

/// Inverse of DaysFromCivil.
[[nodiscard]] constexpr CivilDate CivilFromDays(std::int64_t z) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned>(z - era * 146097);                   // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;               // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                    // [1, 12]
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(d)};
}

/// Timestamp at midnight of the given date.
[[nodiscard]] constexpr Timestamp TimestampOf(CivilDate d) noexcept {
  return DaysFromCivil(d) * kSecondsPerDay;
}

/// Timestamp of the given date-time.
[[nodiscard]] Timestamp TimestampOf(CivilDateTime dt) noexcept;

/// Civil date-time corresponding to a timestamp.
[[nodiscard]] CivilDateTime CivilOf(Timestamp ts) noexcept;

/// Date (midnight truncation) of a timestamp.
[[nodiscard]] CivilDate DateOf(Timestamp ts) noexcept;

/// Day index since epoch of a timestamp (floor division).
[[nodiscard]] std::int64_t DayIndexOf(Timestamp ts) noexcept;

/// Weekday of a date.
[[nodiscard]] Weekday WeekdayOf(CivilDate d) noexcept;

/// Weekday of a timestamp.
[[nodiscard]] Weekday WeekdayOf(Timestamp ts) noexcept;

/// True for Saturday or Sunday.
[[nodiscard]] bool IsWeekend(Weekday wd) noexcept;

/// Hour of day (0..23) of a timestamp.
[[nodiscard]] int HourOf(Timestamp ts) noexcept;

/// "YYYY-MM-DD".
[[nodiscard]] std::string FormatDate(CivilDate d);

/// "YYYY-MM-DD HH:MM:SS".
[[nodiscard]] std::string FormatDateTime(Timestamp ts);

/// Parses "YYYY-MM-DD". Throws std::invalid_argument on malformed input.
[[nodiscard]] CivilDate ParseDate(const std::string& s);

/// The fixed calendar of the measurement study, with the event dates the
/// paper marks as vertical lines in its figures.
struct StudyCalendar {
  static constexpr CivilDate kStart = {2020, 2, 1};
  static constexpr CivilDate kEnd = {2020, 6, 1};  ///< exclusive
  static constexpr CivilDate kStateOfEmergency = {2020, 3, 4};
  static constexpr CivilDate kWhoPandemic = {2020, 3, 11};
  static constexpr CivilDate kStayAtHome = {2020, 3, 19};
  static constexpr CivilDate kBreakStart = {2020, 3, 22};
  static constexpr CivilDate kBreakEnd = {2020, 3, 30};  ///< classes resume online

  /// The four weeks plotted in Figure 3, each identified by its Thursday.
  static constexpr CivilDate kFig3Weeks[4] = {
      {2020, 2, 20}, {2020, 3, 19}, {2020, 4, 9}, {2020, 5, 14}};

  [[nodiscard]] static constexpr Timestamp StartTs() noexcept { return TimestampOf(kStart); }
  [[nodiscard]] static constexpr Timestamp EndTs() noexcept { return TimestampOf(kEnd); }
  /// Number of days in the study period (Feb..May 2020 = 121).
  [[nodiscard]] static constexpr int NumDays() noexcept {
    return static_cast<int>(DaysFromCivil(kEnd) - DaysFromCivil(kStart));
  }
  /// Day index (0-based from study start) of a date.
  [[nodiscard]] static constexpr int DayIndex(CivilDate d) noexcept {
    return static_cast<int>(DaysFromCivil(d) - DaysFromCivil(kStart));
  }
  /// Day index of a timestamp, 0-based from study start.
  [[nodiscard]] static int DayIndex(Timestamp ts) noexcept {
    return static_cast<int>(DayIndexOf(ts) - DaysFromCivil(kStart));
  }
  /// Date of a 0-based study day index.
  [[nodiscard]] static constexpr CivilDate DateAt(int day_index) noexcept {
    return CivilFromDays(DaysFromCivil(kStart) + day_index);
  }
};

// 2020-02-01 00:00:00 on the campus-local timeline.
static_assert(StudyCalendar::StartTs() == 1580515200);

}  // namespace lockdown::util
