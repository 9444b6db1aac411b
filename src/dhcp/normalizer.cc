#include "dhcp/normalizer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

namespace lockdown::dhcp {
namespace {

// Mixes an IPv4 address for the open-addressing table.
constexpr std::size_t HashIp(std::uint32_t ip) noexcept {
  std::uint32_t h = ip * 0x9E3779B1U;
  h ^= h >> 15;
  return h;
}

}  // namespace

IpToMacNormalizer::IpToMacNormalizer(std::span<const Lease> log) {
  if (log.size() >= UINT32_MAX) {
    throw std::length_error("IpToMacNormalizer: more than 2^32 - 2 leases");
  }
  // Sorting (IP, log position) keys groups the leases by IP in log order.
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of;
  std::vector<std::uint32_t> lease_slot(log.size());
  std::vector<std::uint64_t> keys(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto [it, inserted] = slot_of.try_emplace(
        log[i].mac.value(), static_cast<std::uint32_t>(macs_.size()));
    if (inserted) macs_.push_back(log[i].mac);
    lease_slot[i] = it->second;
    keys[i] = (std::uint64_t{log[i].ip.value()} << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k == 0 || (keys[k] >> 32) != (keys[k - 1] >> 32)) ++num_ips_;
  }
  if (num_ips_ != 0) table_.resize(std::bit_ceil(2 * num_ips_));

  const std::size_t mask = table_.size() - 1;
  intervals_.reserve(log.size());
  const auto by_start = [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  };
  for (std::size_t k = 0; k < keys.size();) {
    const auto ip = static_cast<std::uint32_t>(keys[k] >> 32);
    const auto begin = static_cast<std::uint32_t>(intervals_.size());
    for (; k < keys.size() && (keys[k] >> 32) == ip; ++k) {
      const auto i = static_cast<std::uint32_t>(keys[k]);
      intervals_.push_back(Interval{log[i].start, log[i].end, lease_slot[i]});
    }
    const auto end = static_cast<std::uint32_t>(intervals_.size());
    // Stable, so leases of one IP with the same start stay in log order and
    // a lookup's "last started" is the later lease.
    const auto first = intervals_.begin() + begin;
    if (!std::is_sorted(first, intervals_.end(), by_start)) {
      std::stable_sort(first, intervals_.end(), by_start);
    }
    std::size_t cell = HashIp(ip) & mask;
    while (table_[cell].begin != table_[cell].end) cell = (cell + 1) & mask;
    table_[cell] = Group{ip, begin, end};
  }
}

const IpToMacNormalizer::Group* IpToMacNormalizer::FindGroup(
    std::uint32_t ip) const noexcept {
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t cell = HashIp(ip) & mask;; cell = (cell + 1) & mask) {
    const Group& g = table_[cell];
    if (g.begin == g.end) return nullptr;
    if (g.ip == ip) return &g;
  }
}

std::uint32_t IpToMacNormalizer::LastStartedBy(std::uint32_t begin, std::uint32_t end,
                                               util::Timestamp ts) const noexcept {
  const Interval* first = intervals_.data() + begin;
  const Interval* pos = std::upper_bound(
      first, intervals_.data() + end, ts,
      [](util::Timestamp t, const Interval& iv) { return t < iv.start; });
  return pos == first ? end : static_cast<std::uint32_t>(pos - intervals_.data() - 1);
}

std::uint32_t IpToMacNormalizer::LookupSlot(net::Ipv4Address ip,
                                            util::Timestamp ts) const noexcept {
  const Group* g = FindGroup(ip.value());
  if (g == nullptr) return kNoSlot;
  const std::uint32_t pos = LastStartedBy(g->begin, g->end, ts);
  if (pos == g->end || ts >= intervals_[pos].end) return kNoSlot;
  return intervals_[pos].slot;
}

std::optional<net::MacAddress> IpToMacNormalizer::Lookup(
    net::Ipv4Address ip, util::Timestamp ts) const noexcept {
  const std::uint32_t slot = LookupSlot(ip, ts);
  if (slot == kNoSlot) return std::nullopt;
  return macs_[slot];
}

void IpToMacNormalizer::Cursor::Remember(Entry& e, std::uint32_t ip, std::uint32_t pos,
                                         std::uint32_t group_end) noexcept {
  const auto& iv = index_->intervals_;
  e = Entry{ip,
            pos,
            iv[pos].start,
            iv[pos].end,
            pos + 1 < group_end ? iv[pos + 1].start : INT64_MAX,
            iv[pos].slot,
            group_end};
}

std::uint32_t IpToMacNormalizer::Cursor::LookupSlot(net::Ipv4Address ip,
                                                    util::Timestamp ts) noexcept {
  // A DHCP pool hands out addresses densely, so the low bits alone spread
  // the IPs active at one time over the entries.
  Entry& e = entries_[ip.value() & (kEntries - 1)];
  if (e.group_end != 0 && e.ip == ip.value() && e.start <= ts) {
    if (ts >= e.next_start) {
      // A later interval of the same IP: the group is sorted by start, so
      // search only past the remembered one.
      const std::uint32_t pos = index_->LastStartedBy(e.pos + 1, e.group_end, ts);
      if (pos != e.group_end) Remember(e, e.ip, pos, e.group_end);
    }
    return ts < e.end ? e.slot : kNoSlot;
  }
  const Group* g = index_->FindGroup(ip.value());
  if (g == nullptr) return kNoSlot;
  const std::uint32_t pos = index_->LastStartedBy(g->begin, g->end, ts);
  if (pos == g->end) return kNoSlot;
  Remember(e, ip.value(), pos, g->end);
  return ts < e.end ? e.slot : kNoSlot;
}

}  // namespace lockdown::dhcp
