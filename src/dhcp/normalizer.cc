#include "dhcp/normalizer.h"

#include <algorithm>

namespace lockdown::dhcp {

IpToMacNormalizer::IpToMacNormalizer(std::span<const Lease> log) {
  std::unordered_map<std::uint64_t, std::uint32_t> slots;
  for (const Lease& lease : log) {
    const auto [it, inserted] = slots.try_emplace(
        lease.mac.value(), static_cast<std::uint32_t>(macs_.size()));
    if (inserted) macs_.push_back(lease.mac);
    index_[lease.ip.value()].push_back(Interval{lease.start, lease.end, it->second});
  }
  for (auto& [ip, intervals] : index_) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
  }
}

std::uint32_t IpToMacNormalizer::LookupSlot(net::Ipv4Address ip,
                                            util::Timestamp ts) const noexcept {
  const auto it = index_.find(ip.value());
  if (it == index_.end()) return kNoSlot;
  const std::vector<Interval>& intervals = it->second;
  // Last interval with start <= ts.
  auto pos = std::upper_bound(
      intervals.begin(), intervals.end(), ts,
      [](util::Timestamp t, const Interval& iv) { return t < iv.start; });
  if (pos == intervals.begin()) return kNoSlot;
  --pos;
  return ts < pos->end ? pos->slot : kNoSlot;
}

std::optional<net::MacAddress> IpToMacNormalizer::Lookup(
    net::Ipv4Address ip, util::Timestamp ts) const noexcept {
  const std::uint32_t slot = LookupSlot(ip, ts);
  if (slot == kNoSlot) return std::nullopt;
  return macs_[slot];
}

}  // namespace lockdown::dhcp
