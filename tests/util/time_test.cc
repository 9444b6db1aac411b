#include "util/time.h"

#include <gtest/gtest.h>

namespace lockdown::util {
namespace {

TEST(CivilDate, EpochRoundTrip) {
  EXPECT_EQ(DaysFromCivil({1970, 1, 1}), 0);
  EXPECT_EQ(FormatDate(CivilFromDays(0)), "1970-01-01");
}

TEST(CivilDate, KnownDates) {
  // 2020-02-01 is 18293 days after the epoch.
  EXPECT_EQ(DaysFromCivil({2020, 2, 1}), 18293);
  EXPECT_EQ(DaysFromCivil({2020, 3, 1}), 18322);  // 2020 is a leap year
  EXPECT_EQ(DaysFromCivil({2020, 6, 1}), 18414);
}

TEST(CivilDate, RoundTripStudyPeriod) {
  for (std::int64_t d = DaysFromCivil({2020, 1, 1}); d < DaysFromCivil({2020, 12, 31});
       ++d) {
    EXPECT_EQ(DaysFromCivil(CivilFromDays(d)), d);
  }
}

TEST(CivilDate, LeapDay) {
  const CivilDate leap{2020, 2, 29};
  EXPECT_EQ(CivilFromDays(DaysFromCivil(leap)), leap);
  EXPECT_EQ(DaysFromCivil({2020, 3, 1}) - DaysFromCivil({2020, 2, 28}), 2);
}

TEST(Weekday, PaperEventDates) {
  // Checked against a 2020 calendar.
  EXPECT_EQ(WeekdayOf(CivilDate{2020, 2, 1}), Weekday::kSaturday);
  EXPECT_EQ(WeekdayOf(StudyCalendar::kStateOfEmergency), Weekday::kWednesday);
  EXPECT_EQ(WeekdayOf(StudyCalendar::kWhoPandemic), Weekday::kWednesday);
  EXPECT_EQ(WeekdayOf(StudyCalendar::kStayAtHome), Weekday::kThursday);
  EXPECT_EQ(WeekdayOf(StudyCalendar::kBreakStart), Weekday::kSunday);
  EXPECT_EQ(WeekdayOf(StudyCalendar::kBreakEnd), Weekday::kMonday);
}

TEST(Weekday, Fig3WeeksAreThursdays) {
  // Figure 3's x axis starts on Thursday; the paper identifies each week by
  // its Thursday (2/20, 3/19, 4/9, 5/14).
  for (const CivilDate d : StudyCalendar::kFig3Weeks) {
    EXPECT_EQ(WeekdayOf(d), Weekday::kThursday) << FormatDate(d);
  }
}

TEST(Weekday, WeekendDetection) {
  EXPECT_TRUE(IsWeekend(Weekday::kSaturday));
  EXPECT_TRUE(IsWeekend(Weekday::kSunday));
  EXPECT_FALSE(IsWeekend(Weekday::kMonday));
  EXPECT_FALSE(IsWeekend(Weekday::kFriday));
}

TEST(Timestamp, CivilRoundTrip) {
  const CivilDateTime dt{{2020, 3, 19}, 13, 45, 7};
  const Timestamp ts = TimestampOf(dt);
  EXPECT_EQ(CivilOf(ts), dt);
  EXPECT_EQ(FormatDateTime(ts), "2020-03-19 13:45:07");
}

TEST(Timestamp, HourAndDayExtraction) {
  const Timestamp midnight = TimestampOf(CivilDate{2020, 4, 9});
  EXPECT_EQ(HourOf(midnight), 0);
  EXPECT_EQ(HourOf(midnight + 5 * kSecondsPerHour + 59), 5);
  EXPECT_EQ(DayIndexOf(midnight + kSecondsPerDay - 1), DayIndexOf(midnight));
  EXPECT_EQ(DayIndexOf(midnight + kSecondsPerDay), DayIndexOf(midnight) + 1);
}

TEST(Timestamp, NegativeTimestampsFloor) {
  // Pre-epoch timestamps must floor toward earlier days, not truncate.
  EXPECT_EQ(DayIndexOf(-1), -1);
  EXPECT_EQ(DateOf(-1), (CivilDate{1969, 12, 31}));
}

TEST(StudyCalendar, PeriodLength) {
  // Feb (29) + Mar (31) + Apr (30) + May (31) = 121 days.
  EXPECT_EQ(StudyCalendar::NumDays(), 121);
  EXPECT_EQ(StudyCalendar::DayIndex(StudyCalendar::kStart), 0);
  EXPECT_EQ(StudyCalendar::DayIndex(CivilDate{2020, 5, 31}), 120);
  EXPECT_EQ(StudyCalendar::DateAt(120), (CivilDate{2020, 5, 31}));
}

TEST(StudyCalendar, CompileTimeCalendarMatchesRuntimeValues) {
  // Evaluated by the compiler; must equal the runtime values pinned above.
  static constexpr std::int64_t kStartDays = DaysFromCivil({2020, 2, 1});
  static constexpr std::int64_t kMarchDays = DaysFromCivil({2020, 3, 1});
  static constexpr std::int64_t kEndDays = DaysFromCivil({2020, 6, 1});
  static constexpr CivilDate kLeapDay = CivilFromDays(18321);
  static constexpr int kNumDays = StudyCalendar::NumDays();
  static constexpr int kLastDay = StudyCalendar::DayIndex(CivilDate{2020, 5, 31});
  static constexpr Timestamp kStartTs = StudyCalendar::StartTs();
  static constexpr Timestamp kEndTs = StudyCalendar::EndTs();
  EXPECT_EQ(kStartDays, 18293);
  EXPECT_EQ(kMarchDays, 18322);
  EXPECT_EQ(kEndDays, 18414);
  EXPECT_EQ(kLeapDay, (CivilDate{2020, 2, 29}));
  EXPECT_EQ(kNumDays, 121);
  EXPECT_EQ(kLastDay, 120);
  const std::int64_t start_days = DaysFromCivil(StudyCalendar::kStart);
  EXPECT_EQ(kStartTs, start_days * kSecondsPerDay);
  EXPECT_EQ(kEndTs, TimestampOf(StudyCalendar::kEnd));
  EXPECT_EQ(DateOf(kStartTs), StudyCalendar::kStart);
}

TEST(StudyCalendar, RemainderHourMatchesHourOfAroundEveryMidnight) {
  // The diurnal scan takes the hour of day as (t % 86400) / 3600, which
  // must agree with the civil conversion for every study timestamp.
  const auto hour = [](Timestamp t) {
    return static_cast<int>((t % kSecondsPerDay) / kSecondsPerHour);
  };
  for (int day = 0; day <= StudyCalendar::NumDays(); ++day) {
    const Timestamp midnight = StudyCalendar::StartTs() + day * kSecondsPerDay;
    for (const Timestamp t : {midnight - 1, midnight, midnight + 1}) {
      ASSERT_EQ(hour(t), HourOf(t)) << FormatDateTime(t);
    }
  }
}

TEST(StudyCalendar, DayIndexOfTimestampMatchesDate) {
  const Timestamp ts = TimestampOf(CivilDateTime{{2020, 4, 15}, 23, 59, 59});
  EXPECT_EQ(StudyCalendar::DayIndex(ts), StudyCalendar::DayIndex(CivilDate{2020, 4, 15}));
}

TEST(ParseDate, RoundTrip) {
  EXPECT_EQ(ParseDate("2020-03-19"), (CivilDate{2020, 3, 19}));
  EXPECT_EQ(FormatDate(ParseDate("2020-12-01")), "2020-12-01");
}

TEST(ParseDate, RejectsMalformed) {
  EXPECT_THROW((void)ParseDate("not-a-date"), std::invalid_argument);
  EXPECT_THROW((void)ParseDate("2020-13-01"), std::invalid_argument);
  EXPECT_THROW((void)ParseDate("2020-00-10"), std::invalid_argument);
  EXPECT_THROW((void)ParseDate("2020-01-32"), std::invalid_argument);
}

}  // namespace
}  // namespace lockdown::util
