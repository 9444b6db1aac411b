// Zoom attribution (paper §5.1): "we identify all connections that resolve
// to a zoom.us domain. We also analyze connections where an IP address
// matches a list of IP addresses from Zoom support, and use the Internet
// Archive Wayback Machine to find any IP addresses that were previously
// listed on this page, but were subsequently removed."
#pragma once

#include <string_view>

#include "net/ipv4.h"
#include "world/catalog.h"

namespace lockdown::apps {

class ZoomMatcher {
 public:
  /// Builds from the catalog (the reproduction's stand-in for the published
  /// lists): the "zoom" service owns the domains, the "zoom-media" block is
  /// the current relay list and "zoom-media-legacy" the historical one. The
  /// catalog must outlive the matcher.
  explicit ZoomMatcher(const world::ServiceCatalog& catalog);

  /// True if the flow is Zoom traffic: its DNS-mapped hostname matches a
  /// Zoom domain, or its server address is in a published (or historical) IP
  /// range. `host` may be empty for raw-IP flows.
  [[nodiscard]] bool IsZoom(std::string_view host, net::Ipv4Address server) const;

  [[nodiscard]] bool MatchesDomain(std::string_view host) const;
  [[nodiscard]] bool MatchesCurrentIp(net::Ipv4Address ip) const {
    return current_.Contains(ip);
  }
  [[nodiscard]] bool MatchesHistoricalIp(net::Ipv4Address ip) const {
    return historical_.Contains(ip);
  }

 private:
  const world::ServiceCatalog* catalog_;
  world::ServiceId zoom_ = world::kInvalidService;
  net::Cidr current_;
  net::Cidr historical_;
};

}  // namespace lockdown::apps
