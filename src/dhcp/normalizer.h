// IP -> MAC normalization.
//
// "Devices in the network are assigned dynamic, temporary IP addresses by
//  DHCP, which we normalize using contemporaneous DHCP logs to convert these
//  dynamic IP addresses to per-device MAC addresses." (paper, §3)
//
// The normalizer builds an interval index over the DHCP log: per client IP, a
// time-sorted vector of lease intervals, looked up with binary search. This
// makes each lookup O(log k) in the number of leases the address went
// through, versus a full log scan. Each distinct MAC gets a dense slot (its
// first-appearance rank in the log), so per-flow callers can key flat tables
// by slot instead of hashing the MAC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dhcp/lease.h"

namespace lockdown::dhcp {

/// Immutable interval index from (client IP, time) to the MAC that held the
/// address at that time.
class IpToMacNormalizer {
 public:
  /// LookupSlot's answer when no lease covers the instant.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Builds the index from a DHCP log. Intervals for the same IP must not
  /// overlap (the DHCP server guarantees this); ties are resolved in favour
  /// of the later lease.
  explicit IpToMacNormalizer(std::span<const Lease> log);

  /// Slot of the MAC holding `ip` at time `ts`, or kNoSlot if no lease
  /// covers the instant.
  [[nodiscard]] std::uint32_t LookupSlot(net::Ipv4Address ip,
                                         util::Timestamp ts) const noexcept;

  /// MAC holding `ip` at time `ts`, or nullopt if no lease covers the instant.
  [[nodiscard]] std::optional<net::MacAddress> Lookup(net::Ipv4Address ip,
                                                      util::Timestamp ts) const noexcept;

  /// The MAC numbered `slot` (< num_macs()).
  [[nodiscard]] net::MacAddress mac(std::uint32_t slot) const { return macs_[slot]; }
  /// Number of distinct MACs in the log; slots are [0, num_macs()).
  [[nodiscard]] std::size_t num_macs() const noexcept { return macs_.size(); }
  /// Number of distinct client IPs indexed.
  [[nodiscard]] std::size_t num_ips() const noexcept { return index_.size(); }

 private:
  struct Interval {
    util::Timestamp start;
    util::Timestamp end;
    std::uint32_t slot;
  };
  std::unordered_map<std::uint32_t, std::vector<Interval>> index_;
  std::vector<net::MacAddress> macs_;  ///< by slot
};

}  // namespace lockdown::dhcp
