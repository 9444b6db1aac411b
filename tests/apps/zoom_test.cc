#include "apps/zoom.h"

#include <gtest/gtest.h>

namespace lockdown::apps {
namespace {

const world::ServiceCatalog& Catalog() { return world::ServiceCatalog::Default(); }

net::Cidr BlockOf(std::string_view service) {
  return Catalog().Get(*Catalog().FindByName(service)).block;
}

TEST(ZoomMatcher, DomainMatch) {
  const ZoomMatcher m(Catalog());
  const net::Ipv4Address elsewhere(1, 1, 1, 1);
  EXPECT_TRUE(m.IsZoom("zoom.us", elsewhere));
  EXPECT_TRUE(m.IsZoom("us04web.zoom.us", elsewhere));
  EXPECT_TRUE(m.IsZoom("a.b.zoom.us", elsewhere));
  EXPECT_FALSE(m.IsZoom("zoom.com", elsewhere));
  EXPECT_FALSE(m.IsZoom("notzoom.us", elsewhere));
  EXPECT_FALSE(m.IsZoom("zoom.usa", elsewhere));
}

TEST(ZoomMatcher, CurrentIpListMatchesRawTraffic) {
  const ZoomMatcher m(Catalog());
  const net::Cidr media = BlockOf("zoom-media");
  // Media relays never resolve through DNS: host is empty.
  EXPECT_TRUE(m.IsZoom("", media.At(3)));
  EXPECT_TRUE(m.MatchesCurrentIp(media.At(media.size() - 1)));
  const net::Ipv4Address past_end(media.base().value() +
                                  static_cast<std::uint32_t>(media.size()));
  EXPECT_FALSE(m.MatchesCurrentIp(past_end));
}

TEST(ZoomMatcher, HistoricalWaybackRangesStillMatch) {
  // "use the Internet Archive Wayback Machine to find any IP addresses that
  //  were previously listed on this page, but were subsequently removed".
  const ZoomMatcher m(Catalog());
  const net::Ipv4Address retired = BlockOf("zoom-media-legacy").At(42);
  EXPECT_TRUE(m.IsZoom("", retired));
  EXPECT_TRUE(m.MatchesHistoricalIp(retired));
  EXPECT_FALSE(m.MatchesCurrentIp(retired));
}

TEST(ZoomMatcher, NonZoomTraffic) {
  const ZoomMatcher m(Catalog());
  const net::Ipv4Address netflix = BlockOf("netflix").At(1);
  EXPECT_FALSE(m.IsZoom("netflix.com", netflix));
  EXPECT_FALSE(m.IsZoom("", netflix));
}

TEST(ZoomMatcher, CatalogConstruction) {
  const ZoomMatcher m(Catalog());
  for (const std::string& host : Catalog().Get(*Catalog().FindByName("zoom")).hosts) {
    EXPECT_TRUE(m.MatchesDomain(host)) << host;
  }
  EXPECT_TRUE(m.MatchesCurrentIp(BlockOf("zoom-media").At(42)));
  EXPECT_TRUE(m.MatchesHistoricalIp(BlockOf("zoom-media-legacy").At(42)));
  // Steam traffic is not Zoom.
  EXPECT_FALSE(m.IsZoom("steampowered.com", BlockOf("steam").At(1)));
}

TEST(ZoomMatcher, DomainBeatsIpCheck) {
  // A flow with a zoom.us hostname is Zoom regardless of address.
  const ZoomMatcher m(Catalog());
  EXPECT_TRUE(m.IsZoom("zoom.us", *net::Ipv4Address::Parse("99.99.99.99")));
}

}  // namespace
}  // namespace lockdown::apps
