#include "privacy/visitor_filter.h"

namespace lockdown::privacy {

void VisitorFilter::Observe(DeviceId device, util::Timestamp ts) {
  const std::int64_t day = util::DayIndexOf(ts);
  State& st = days_[device];
  if (day == st.last_day) return;
  if (st.days.insert(day).second) {
    ++st.distinct_days;
  }
  st.last_day = day;
}

bool VisitorFilter::Retained(DeviceId device) const noexcept {
  const auto it = days_.find(device);
  return it != days_.end() && it->second.distinct_days >= min_days_;
}

int VisitorFilter::ActiveDays(DeviceId device) const noexcept {
  const auto it = days_.find(device);
  return it == days_.end() ? 0 : it->second.distinct_days;
}

std::size_t VisitorFilter::num_retained() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, st] : days_) {
    if (st.distinct_days >= min_days_) ++n;
  }
  return n;
}

}  // namespace lockdown::privacy
