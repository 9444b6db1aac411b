#include "dns/mapper.h"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>

namespace lockdown::dns {
namespace {

Resolution Res(util::Timestamp ts, std::string qname, net::Ipv4Address ip) {
  return Resolution{ts, net::MacAddress(1), std::move(qname), ip, 300};
}

// m.Lookup(ip, ts), after checking that the id lookup agrees with it.
std::optional<std::string_view> Probe(const IpToDomainMapper& m, net::Ipv4Address ip,
                                      util::Timestamp ts) {
  const auto name = m.Lookup(ip, ts);
  const std::uint32_t id = m.LookupId(ip, ts);
  if (name) {
    EXPECT_LT(id, m.num_names());
    if (id < m.num_names()) {
      EXPECT_EQ(m.name(id), *name);
    }
  } else {
    EXPECT_EQ(id, IpToDomainMapper::kNoName);
  }
  return name;
}

TEST(IpToDomainMapper, BasicReverseLookup) {
  const net::Ipv4Address ip(52, 1, 0, 1);
  const std::vector<Resolution> log = {Res(100, "zoom.us", ip)};
  IpToDomainMapper m(log);
  EXPECT_EQ(Probe(m, ip, 100), "zoom.us");
  EXPECT_EQ(Probe(m, ip, 99999), "zoom.us");  // sticky after resolution
}

TEST(IpToDomainMapper, NothingBeforeFirstResolution) {
  const net::Ipv4Address ip(52, 1, 0, 1);
  const std::vector<Resolution> log = {Res(100, "zoom.us", ip)};
  IpToDomainMapper m(log);
  EXPECT_FALSE(Probe(m, ip, 99).has_value());
}

TEST(IpToDomainMapper, UnknownAddress) {
  IpToDomainMapper m(std::vector<Resolution>{});
  EXPECT_FALSE(Probe(m, net::Ipv4Address(8, 8, 8, 8), 1000).has_value());
  EXPECT_EQ(m.num_ips(), 0u);
}

TEST(IpToDomainMapper, MostRecentNameWins) {
  // A shared CDN-ish address serving different names over time: the mapper
  // must return the name contemporaneous with the flow.
  const net::Ipv4Address ip(52, 9, 9, 9);
  const std::vector<Resolution> log = {
      Res(100, "alpha.example", ip),
      Res(500, "beta.example", ip),
      Res(900, "alpha.example", ip),
  };
  IpToDomainMapper m(log);
  EXPECT_EQ(Probe(m, ip, 300), "alpha.example");
  EXPECT_EQ(Probe(m, ip, 500), "beta.example");
  EXPECT_EQ(Probe(m, ip, 899), "beta.example");
  EXPECT_EQ(Probe(m, ip, 2000), "alpha.example");
}

TEST(IpToDomainMapper, ConsecutiveDuplicatesCollapsed) {
  const net::Ipv4Address ip(52, 1, 2, 3);
  std::vector<Resolution> log;
  for (int i = 0; i < 100; ++i) log.push_back(Res(i * 300, "steamcontent.com", ip));
  IpToDomainMapper m(log);
  EXPECT_EQ(m.num_ips(), 1u);
  EXPECT_EQ(Probe(m, ip, 15000), "steamcontent.com");
}

TEST(IpToDomainMapper, DistinctAddressesIndependent) {
  const net::Ipv4Address a(1, 1, 1, 1);
  const net::Ipv4Address b(2, 2, 2, 2);
  const std::vector<Resolution> log = {Res(0, "a.example", a), Res(0, "b.example", b)};
  IpToDomainMapper m(log);
  EXPECT_EQ(Probe(m, a, 10), "a.example");
  EXPECT_EQ(Probe(m, b, 10), "b.example");
  EXPECT_EQ(m.num_ips(), 2u);
}

TEST(IpToDomainMapper, IdsNumberNamesInFirstAppearanceOrder) {
  const net::Ipv4Address a(1, 1, 1, 1);
  const net::Ipv4Address b(2, 2, 2, 2);
  const std::vector<Resolution> log = {
      Res(0, "b.example", b), Res(0, "a.example", a), Res(50, "b.example", a),
      Res(60, "b.example", a)};
  IpToDomainMapper m(log);
  ASSERT_EQ(m.num_names(), 2u);
  EXPECT_EQ(m.name(0), "b.example");
  EXPECT_EQ(m.name(1), "a.example");
  EXPECT_EQ(m.LookupId(a, 10), 1u);
  EXPECT_EQ(m.LookupId(a, 70), 0u);
  EXPECT_EQ(m.LookupId(b, 0), 0u);
  EXPECT_EQ(Probe(m, b, 99), "b.example");
}

}  // namespace
}  // namespace lockdown::dns
