#include "util/time.h"

#include <cstdio>
#include <stdexcept>

namespace lockdown::util {

const char* ToString(Weekday wd) noexcept {
  switch (wd) {
    case Weekday::kSunday: return "Sun";
    case Weekday::kMonday: return "Mon";
    case Weekday::kTuesday: return "Tue";
    case Weekday::kWednesday: return "Wed";
    case Weekday::kThursday: return "Thu";
    case Weekday::kFriday: return "Fri";
    case Weekday::kSaturday: return "Sat";
  }
  return "???";
}

Timestamp TimestampOf(CivilDateTime dt) noexcept {
  return TimestampOf(dt.date) + dt.hour * kSecondsPerHour +
         dt.minute * kSecondsPerMinute + dt.second;
}

namespace {
std::int64_t FloorDiv(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
}  // namespace

CivilDateTime CivilOf(Timestamp ts) noexcept {
  const std::int64_t days = FloorDiv(ts, kSecondsPerDay);
  std::int64_t rem = ts - days * kSecondsPerDay;
  CivilDateTime out;
  out.date = CivilFromDays(days);
  out.hour = static_cast<int>(rem / kSecondsPerHour);
  rem %= kSecondsPerHour;
  out.minute = static_cast<int>(rem / kSecondsPerMinute);
  out.second = static_cast<int>(rem % kSecondsPerMinute);
  return out;
}

CivilDate DateOf(Timestamp ts) noexcept { return CivilFromDays(FloorDiv(ts, kSecondsPerDay)); }

std::int64_t DayIndexOf(Timestamp ts) noexcept { return FloorDiv(ts, kSecondsPerDay); }

Weekday WeekdayOf(CivilDate d) noexcept {
  // 1970-01-01 was a Thursday (weekday 4 with Sunday = 0).
  const std::int64_t days = DaysFromCivil(d);
  std::int64_t wd = (days + 4) % 7;
  if (wd < 0) wd += 7;
  return static_cast<Weekday>(wd);
}

Weekday WeekdayOf(Timestamp ts) noexcept { return WeekdayOf(DateOf(ts)); }

bool IsWeekend(Weekday wd) noexcept {
  return wd == Weekday::kSaturday || wd == Weekday::kSunday;
}

int HourOf(Timestamp ts) noexcept { return CivilOf(ts).hour; }

std::string FormatDate(CivilDate d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

std::string FormatDateTime(Timestamp ts) {
  const CivilDateTime dt = CivilOf(ts);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", dt.date.year,
                dt.date.month, dt.date.day, dt.hour, dt.minute, dt.second);
  return buf;
}

CivilDate ParseDate(const std::string& s) {
  CivilDate d;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &d.year, &d.month, &d.day) != 3 ||
      d.month < 1 || d.month > 12 || d.day < 1 || d.day > 31) {
    throw std::invalid_argument("ParseDate: malformed date: " + s);
  }
  return d;
}

}  // namespace lockdown::util
