#include "apps/zoom.h"

#include <stdexcept>

namespace lockdown::apps {

ZoomMatcher::ZoomMatcher(const world::ServiceCatalog& catalog) : catalog_(&catalog) {
  const auto zoom = catalog.FindByName("zoom");
  const auto media = catalog.FindByName("zoom-media");
  const auto legacy = catalog.FindByName("zoom-media-legacy");
  if (!zoom || !media || !legacy) {
    throw std::invalid_argument("ZoomMatcher: catalog lacks zoom services");
  }
  zoom_ = *zoom;
  current_ = catalog.Get(*media).block;
  historical_ = catalog.Get(*legacy).block;
}

bool ZoomMatcher::MatchesDomain(std::string_view host) const {
  return catalog_->FindByHost(host) == zoom_;
}

bool ZoomMatcher::IsZoom(std::string_view host, net::Ipv4Address server) const {
  if (!host.empty() && MatchesDomain(host)) return true;
  return MatchesCurrentIp(server) || MatchesHistoricalIp(server);
}

}  // namespace lockdown::apps
