// Remote IP -> domain mapping.
//
// "we use contemporaneous DNS logs to convert remote IP addresses ... to
//  domain names (hence, allowing us to distinguish between different services
//  in use)." (paper, §3)
//
// The mapper inverts the DNS log: for each answer address it keeps the
// time-sorted resolutions, and a lookup returns the name most recently
// resolved to that address at-or-before the flow's start (a resolution
// remains usable until another name claims the address, since clients
// commonly hold connections past the TTL). Each distinct name gets a dense
// id (its first-appearance rank in the log), so per-flow callers carry a
// 4-byte id and resolve the string once per name.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/record.h"

namespace lockdown::dns {

/// Immutable reverse index from (server IP, time) to domain name.
class IpToDomainMapper {
 public:
  /// LookupId's answer when the address has no resolution at or before `ts`.
  static constexpr std::uint32_t kNoName = UINT32_MAX;

  explicit IpToDomainMapper(std::span<const Resolution> log);

  /// Id of the domain most recently resolved to `ip` at or before `ts`;
  /// kNoName if the address never appeared in the log before `ts`.
  [[nodiscard]] std::uint32_t LookupId(net::Ipv4Address ip,
                                       util::Timestamp ts) const noexcept;

  /// Domain most recently resolved to `ip` at or before `ts`; nullopt if the
  /// address never appeared in the log before `ts`.
  [[nodiscard]] std::optional<std::string_view> Lookup(net::Ipv4Address ip,
                                                       util::Timestamp ts) const noexcept;

  /// The name numbered `id` (< num_names()).
  [[nodiscard]] std::string_view name(std::uint32_t id) const { return names_[id]; }
  /// Number of distinct names in the log; ids are [0, num_names()).
  [[nodiscard]] std::size_t num_names() const noexcept { return names_.size(); }
  /// Number of distinct server addresses indexed.
  [[nodiscard]] std::size_t num_ips() const noexcept { return index_.size(); }

 private:
  struct Entry {
    util::Timestamp ts;
    std::uint32_t name;
  };
  std::unordered_map<std::uint32_t, std::vector<Entry>> index_;
  std::vector<std::string> names_;  ///< by id
};

}  // namespace lockdown::dns
