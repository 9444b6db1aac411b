// Visitor filtering.
//
// "to avoid analyzing traffic from campus visitors we discard information for
//  devices that appear on the network for fewer than 14 days." (paper, §3)
//
// The filter counts *distinct active days* per device in a streaming pass and
// then answers membership queries. Days need not be consecutive.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "privacy/anonymizer.h"
#include "util/time.h"

namespace lockdown::privacy {

/// Streaming distinct-active-day counter with a retention threshold.
class VisitorFilter {
 public:
  /// `min_days`: minimum number of distinct days a device must appear on the
  /// network to be retained. The paper uses 14.
  explicit VisitorFilter(int min_days = 14) noexcept : min_days_(min_days) {}

  /// Records that `device` was active at `ts`.
  void Observe(DeviceId device, util::Timestamp ts);

  /// True if the device met the retention threshold.
  [[nodiscard]] bool Retained(DeviceId device) const noexcept;

  /// Number of distinct days the device was seen (0 if never).
  [[nodiscard]] int ActiveDays(DeviceId device) const noexcept;

  /// Total devices observed / retained.
  [[nodiscard]] std::size_t num_observed() const noexcept { return days_.size(); }
  [[nodiscard]] std::size_t num_retained() const noexcept;

  [[nodiscard]] int min_days() const noexcept { return min_days_; }

 private:
  struct State {
    std::int64_t last_day = -1;  // day index of most recent observation
    int distinct_days = 0;
    // Observations usually arrive in time order per device; `last_day` makes
    // the common case O(1). Out-of-order days fall back to the set.
    std::unordered_set<std::int64_t> days;
  };
  int min_days_;
  std::unordered_map<DeviceId, State, DeviceIdHash> days_;
};

}  // namespace lockdown::privacy
