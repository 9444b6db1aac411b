// Simulation of the campus recursive resolver.
//
// The traffic generator asks the resolver for an address before opening each
// connection, exactly as a client stack would. The resolver picks one of the
// authoritative addresses for the name (round-robin among a service's block),
// caches it for the TTL, and appends the resolution to the DNS log that the
// pipeline later joins against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/record.h"
#include "util/hash.h"
#include "util/rng.h"

namespace lockdown::dns {

/// Authoritative data: resolves a name to its full address set.
/// Returning an empty span means NXDOMAIN.
using AuthorityFn =
    std::function<std::vector<net::Ipv4Address>(std::string_view qname)>;

struct ResolverConfig {
  std::int32_t default_ttl = 300;  ///< seconds
  /// Per-client negative/positive cache is modeled as one shared cache, as a
  /// campus recursive resolver would be.
  std::size_t max_log_entries = 0;  ///< 0 = unbounded
};

/// TTL-honouring caching resolver that records every new resolution in the
/// DNS log (cache hits extend no entries — the original mapping is still
/// live). Queries timestamped before the cached entry was created are
/// treated as misses so that slightly out-of-order callers still obtain a
/// log entry covering their flow.
class Resolver {
 public:
  Resolver(AuthorityFn authority, ResolverConfig config, util::Pcg32 rng);

  /// Resolves `qname` for `client` at time `now`. Returns the answer address
  /// or nullopt on NXDOMAIN. New (non-cached) answers are appended to log().
  [[nodiscard]] std::optional<net::Ipv4Address> Resolve(net::MacAddress client,
                                                        std::string_view qname,
                                                        util::Timestamp now);

  [[nodiscard]] const std::vector<Resolution>& log() const noexcept { return log_; }

  /// Cache statistics, exposed for tests and the perf bench.
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }

 private:
  struct CacheEntry {
    net::Ipv4Address answer;
    util::Timestamp created = 0;
    util::Timestamp expires = 0;
  };

  AuthorityFn authority_;
  ResolverConfig config_;
  util::Pcg32 rng_;
  // Transparent hash: a hit probes with the query's string_view, and only a
  // miss on a new name builds the key string.
  std::unordered_map<std::string, CacheEntry, util::StringHash, std::equal_to<>> cache_;
  std::vector<Resolution> log_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace lockdown::dns
