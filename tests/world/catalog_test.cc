#include "world/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/strings.h"

namespace lockdown::world {
namespace {

const ServiceCatalog& Catalog() { return ServiceCatalog::Default(); }

TEST(ServiceCatalog, HasPaperNamedServices) {
  for (const char* name :
       {"zoom", "zoom-media", "zoom-media-legacy", "facebook", "instagram",
        "tiktok", "steam", "nintendo-gameplay", "nintendo-services"}) {
    EXPECT_TRUE(Catalog().FindByName(name).has_value()) << name;
  }
}

TEST(ServiceCatalog, HasTapExclusionList) {
  // §3: "parts of UC San Diego, Google Cloud, Amazon, Microsoft Azure, Riot
  // Games, Twitch, Qualys, and Apple".
  for (const char* name : {"ucsd-internal", "google-cloud", "amazon-retail",
                           "azure", "riot", "twitch", "qualys", "apple"}) {
    const auto id = Catalog().FindByName(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_TRUE(Catalog().Get(*id).tap_excluded) << name;
  }
}

TEST(ServiceCatalog, CdnFlagsMatchPaper) {
  // §4.2 excludes exactly Akamai, AWS, Cloudfront, Optimizely from midpoints.
  for (const char* name : {"akamai", "aws", "cloudfront", "optimizely"}) {
    const auto id = Catalog().FindByName(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_TRUE(Catalog().Get(*id).is_cdn) << name;
  }
  EXPECT_FALSE(Catalog().Get(*Catalog().FindByName("netflix")).is_cdn);
}

TEST(ServiceCatalog, FindByHostExactAndSubdomain) {
  const auto zoom = Catalog().FindByName("zoom");
  EXPECT_EQ(Catalog().FindByHost("zoom.us"), zoom);
  EXPECT_EQ(Catalog().FindByHost("us04web.zoom.us"), zoom);
  EXPECT_EQ(Catalog().FindByHost("deep.sub.domain.zoom.us"), zoom);
  EXPECT_FALSE(Catalog().FindByHost("notzoom.us").has_value());
  EXPECT_FALSE(Catalog().FindByHost("unknown.example").has_value());
}

// The oracle for the suffix index: the service owning the longest catalogued
// name that `host` equals or is a subdomain of.
std::optional<ServiceId> FindByHostLinear(const ServiceCatalog& catalog,
                                          std::string_view host) {
  std::optional<ServiceId> best;
  std::size_t best_len = 0;
  for (ServiceId id = 0; id < catalog.size(); ++id) {
    for (const std::string& name : catalog.Get(id).hosts) {
      if (name.size() > best_len && util::DomainMatches(host, name)) {
        best = id;
        best_len = name.size();
      }
    }
  }
  return best;
}

TEST(ServiceCatalog, FindByHostAgreesWithLinearScan) {
  // Every catalogued name, a subdomain and two look-alikes of each.
  std::vector<std::string> probes = {"", "com", "us", "zoom.usa", "steam.com"};
  for (const Service& svc : Catalog().services()) {
    for (const std::string& host : svc.hosts) {
      probes.insert(probes.end(), {host, "sub." + host, "x" + host, host + ".evil.com"});
    }
  }
  for (const std::string& host : probes) {
    EXPECT_EQ(Catalog().FindByHost(host), FindByHostLinear(Catalog(), host)) << host;
  }
}

TEST(ServiceCatalog, FindByHostEqualsLinearOnRandomHosts) {
  // Random hosts assembled from the catalog's own labels.
  std::set<std::string> label_set;
  for (const Service& svc : Catalog().services()) {
    for (const std::string& host : svc.hosts) {
      for (const std::string_view label : util::Split(host, '.')) {
        label_set.emplace(label);
      }
    }
  }
  const std::vector<std::string> labels(label_set.begin(), label_set.end());
  util::Pcg32 rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string host;
    const int n = 1 + static_cast<int>(rng.NextBounded(4));
    for (int k = 0; k < n; ++k) {
      if (k) host += '.';
      host += labels[rng.NextBounded(static_cast<std::uint32_t>(labels.size()))];
    }
    EXPECT_EQ(Catalog().FindByHost(host), FindByHostLinear(Catalog(), host)) << host;
  }
}

TEST(ServiceCatalog, MoreSpecificHostWins) {
  // weixin.qq.com belongs to wechat even though qq.com belongs to qq.
  EXPECT_EQ(Catalog().FindByHost("weixin.qq.com"), Catalog().FindByName("wechat"));
  EXPECT_EQ(Catalog().FindByHost("qq.com"), Catalog().FindByName("qq"));
  EXPECT_EQ(Catalog().FindByHost("gcloud.qq.com"),
            Catalog().FindByName("tencent-games"));
}

TEST(ServiceCatalog, BlocksAreDisjoint) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  for (const Service& svc : Catalog().services()) {
    const std::uint32_t lo = svc.block.base().value();
    const std::uint32_t hi =
        lo + static_cast<std::uint32_t>(svc.block.size()) - 1;
    ranges.emplace_back(lo, hi);
  }
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second);
  }
}

TEST(ServiceCatalog, FindByIpRoundTrip) {
  for (const char* name : {"zoom", "steam", "bilibili", "akamai"}) {
    const auto id = Catalog().FindByName(name);
    ASSERT_TRUE(id.has_value());
    const net::Cidr block = Catalog().Get(*id).block;
    EXPECT_EQ(Catalog().FindByIp(block.At(1)), id) << name;
    EXPECT_EQ(Catalog().FindByIp(block.At(block.size() - 1)), id) << name;
  }
  EXPECT_FALSE(Catalog().FindByIp(net::Ipv4Address(10, 0, 0, 1)).has_value());
}

// FindByIp against a linear scan of every block, at each block's edges
// (base - 1, base, last, last + 1), just outside the carved span, and at
// both ends of the address space.
void ExpectFindByIpMatchesScan(const ServiceCatalog& catalog) {
  const auto scan = [&catalog](net::Ipv4Address ip) -> std::optional<ServiceId> {
    for (ServiceId id = 0; id < catalog.size(); ++id) {
      if (catalog.Get(id).block.Contains(ip)) return id;
    }
    return std::nullopt;
  };
  std::vector<std::uint32_t> probes = {0u, 1u, 0xFFFFFFFEu, 0xFFFFFFFFu};
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (const Service& svc : catalog.services()) {
    const std::uint64_t base = svc.block.base().value();
    const std::uint64_t last = base + svc.block.size() - 1;
    lo = std::min(lo, base);
    hi = std::max(hi, last);
    for (const std::uint64_t v : {base - 1, base, base + 1, last - 1, last, last + 1}) {
      probes.push_back(static_cast<std::uint32_t>(v));
    }
  }
  if (!catalog.services().empty()) {
    for (const std::uint64_t v : {lo - 2, lo - 1, hi + 1, hi + 2}) {
      probes.push_back(static_cast<std::uint32_t>(v));
    }
  }
  for (const std::uint32_t v : probes) {
    const net::Ipv4Address ip(v);
    EXPECT_EQ(catalog.FindByIp(ip), scan(ip)) << ip.ToString();
  }
}

TEST(ServiceCatalog, FindByIpMatchesLinearScanOnDefaultCatalog) {
  ExpectFindByIpMatchesScan(Catalog());
}

TEST(ServiceCatalog, FindByIpMatchesLinearScanOnMixedBlockSizes) {
  // /26s between /20s and /22s leave alignment gaps inside the span.
  const std::vector<int> prefixes = {26, 20, 22, 26, 26, 22, 20, 26, 22, 26};
  std::vector<std::string> names;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    names.push_back("svc-" + std::to_string(i));
  }
  std::vector<ServiceSpec> specs;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    ServiceSpec spec;
    spec.name = names[i];
    spec.prefix_len = prefixes[i];
    specs.push_back(spec);
  }
  const ServiceCatalog catalog(specs, *net::Cidr::Parse("100.64.0.0/16"));
  ASSERT_EQ(catalog.size(), prefixes.size());
  ExpectFindByIpMatchesScan(catalog);
  // Every address of the span, not only the edges.
  for (std::uint32_t v = 0x64400000u; v < 0x64410000u; ++v) {
    const net::Ipv4Address ip(v);
    std::optional<ServiceId> want;
    for (ServiceId id = 0; id < catalog.size(); ++id) {
      if (catalog.Get(id).block.Contains(ip)) want = id;
    }
    ASSERT_EQ(catalog.FindByIp(ip), want) << ip.ToString();
  }
}

TEST(ServiceCatalog, FindByIpOnEmptyCatalogFindsNothing) {
  const ServiceCatalog catalog(std::span<const ServiceSpec>{});
  EXPECT_EQ(catalog.size(), 0u);
  ExpectFindByIpMatchesScan(catalog);
  EXPECT_FALSE(catalog.FindByIp(net::Ipv4Address(64, 0, 0, 1)).has_value());
}

TEST(ServiceCatalog, ResolveHostStableAndInBlock) {
  const auto ips1 = Catalog().ResolveHost("steampowered.com");
  const auto ips2 = Catalog().ResolveHost("steampowered.com");
  ASSERT_FALSE(ips1.empty());
  EXPECT_EQ(ips1, ips2);  // deterministic
  const net::Cidr block = Catalog().Get(*Catalog().FindByName("steam")).block;
  for (net::Ipv4Address ip : ips1) EXPECT_TRUE(block.Contains(ip));
}

TEST(ServiceCatalog, DnsLessServicesDoNotResolve) {
  EXPECT_TRUE(Catalog().ResolveHost("zoom-media-whatever").empty());
  const auto media = Catalog().FindByName("zoom-media");
  EXPECT_TRUE(Catalog().Get(*media).dns_less);
}

TEST(ServiceCatalog, DifferentHostsUsuallyDifferentAddresses) {
  const auto a = Catalog().ResolveHost("facebook.com");
  const auto b = Catalog().ResolveHost("fbcdn.net");
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a, b);
}

TEST(ServiceCatalog, LongTailPresent) {
  // The long tail backs the §4.1 "34% more distinct sites" growth.
  EXPECT_GE(Catalog().size(), 250u);
  EXPECT_TRUE(Catalog().FindByName("web-us-000").has_value());
  EXPECT_TRUE(Catalog().FindByName("web-cn-000").has_value());
  const auto id = Catalog().FindByHost("www.us-site-017.net");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(Catalog().Get(*id).name, "web-us-017");
}

TEST(ServiceCatalog, ForeignServicesCarryCountry) {
  EXPECT_EQ(Catalog().Get(*Catalog().FindByName("bilibili")).country, "CN");
  EXPECT_EQ(Catalog().Get(*Catalog().FindByName("naver")).country, "KR");
  EXPECT_EQ(Catalog().Get(*Catalog().FindByName("hotstar")).country, "IN");
  EXPECT_EQ(Catalog().Get(*Catalog().FindByName("facebook")).country, "US");
}

TEST(ServiceCatalog, CustomCatalogRejectsDuplicateNames) {
  const std::vector<ServiceSpec> specs = {
      {.name = "a", .category = Category::kWeb, .country = "US", .location = {},
       .hosts = {"a.example"}},
      {.name = "a", .category = Category::kWeb, .country = "US", .location = {},
       .hosts = {"b.example"}},
  };
  EXPECT_THROW(ServiceCatalog catalog(specs), std::invalid_argument);
}

TEST(ServiceCatalog, CustomCatalogRejectsDuplicateHosts) {
  const std::vector<ServiceSpec> specs = {
      {.name = "a", .category = Category::kWeb, .country = "US", .location = {},
       .hosts = {"x.example"}},
      {.name = "b", .category = Category::kWeb, .country = "US", .location = {},
       .hosts = {"x.example"}},
  };
  EXPECT_THROW(ServiceCatalog catalog(specs), std::invalid_argument);
}

}  // namespace
}  // namespace lockdown::world
