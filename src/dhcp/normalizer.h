// IP -> MAC normalization.
//
// "Devices in the network are assigned dynamic, temporary IP addresses by
//  DHCP, which we normalize using contemporaneous DHCP logs to convert these
//  dynamic IP addresses to per-device MAC addresses." (paper, §3)
//
// The normalizer builds a flat interval index over the DHCP log: one array
// of lease intervals grouped by client IP, each group in (start, log order),
// and an open-addressing table from IP to its group, sized by the number of
// distinct IPs. A lookup finds the group and binary-searches it, O(log k) in
// the number of leases the address went through. Per-flow callers that walk
// flows in roughly time order use a Cursor: a fixed-size direct-mapped memo
// of the interval each recently seen IP last hit, so most lookups skip both
// the table probe and the search. Each distinct MAC gets a dense slot (its
// first-appearance rank in the log), so per-flow callers can key flat tables
// by slot instead of hashing the MAC.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dhcp/lease.h"
#include "util/memstats.h"

namespace lockdown::dhcp {

/// Immutable interval index from (client IP, time) to the MAC that held the
/// address at that time.
class IpToMacNormalizer {
 public:
  /// LookupSlot's answer when no lease covers the instant.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Builds the index from a DHCP log. A lookup takes the IP's lease with
  /// the latest start at or before the instant; among leases with the same
  /// start, the one later in the log. The DHCP server never overlaps two
  /// leases of one IP, but the rule holds for any log.
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
  [[nodiscard]] std::size_t num_ips() const noexcept { return num_ips_; }

  /// LookupSlot with a memory of the interval each recently seen IP last
  /// hit. Answers exactly as IpToMacNormalizer::LookupSlot; fastest when
  /// lookups of one IP come in nondecreasing time. Its memory is fixed,
  /// whatever the number of IPs. Not thread-safe: keep one per lane.
  class Cursor {
   public:
    /// `index` must outlive the cursor.
    explicit Cursor(const IpToMacNormalizer& index) noexcept : index_(&index) {}
    [[nodiscard]] std::uint32_t LookupSlot(net::Ipv4Address ip,
                                           util::Timestamp ts) noexcept;

   private:
    /// The interval an IP last hit, with the next start in its group: an
    /// instant in [start, next_start) has the same answer.
    struct Entry {
      std::uint32_t ip = 0;
      std::uint32_t pos = 0;        ///< index in intervals_
      util::Timestamp start = 0;
      util::Timestamp end = 0;
      util::Timestamp next_start = 0;
      std::uint32_t slot = 0;
      std::uint32_t group_end = 0;  ///< 0 marks an empty entry
    };
    void Remember(Entry& e, std::uint32_t ip, std::uint32_t pos,
                  std::uint32_t group_end) noexcept;
    /// 160 KiB: room for the ~2,000 IPs one 16,384-flow chunk of a
    /// 1200-student campus touches.
    static constexpr std::size_t kEntries = 4096;
    const IpToMacNormalizer* index_;
    std::array<Entry, kEntries> entries_{};
  };

 private:
  struct Interval {
    util::Timestamp start;
    util::Timestamp end;
    std::uint32_t slot;
  };
  /// One open-addressing table cell: the IP's intervals are
  /// intervals_[begin, end); begin == end marks an empty cell.
  struct Group {
    std::uint32_t ip = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  [[nodiscard]] const Group* FindGroup(std::uint32_t ip) const noexcept;
  /// Index of the last interval in [begin, end) with start <= ts, or `end`
  /// when there is none.
  [[nodiscard]] std::uint32_t LastStartedBy(std::uint32_t begin, std::uint32_t end,
                                            util::Timestamp ts) const noexcept;

  // The index arrays sit on their own page mappings, not the malloc heap
  // (util::PageAllocator says why).
  /// Grouped by IP, each group by (start, log order).
  std::vector<Interval, util::PageAllocator<Interval>> intervals_;
  /// Power-of-two size, load <= 1/2.
  std::vector<Group, util::PageAllocator<Group>> table_;
  std::vector<net::MacAddress> macs_;  ///< by slot
  std::size_t num_ips_ = 0;
};

}  // namespace lockdown::dhcp
