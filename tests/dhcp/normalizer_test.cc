#include "dhcp/normalizer.h"

#include <gtest/gtest.h>

#include "dhcp/server.h"
#include "util/rng.h"

namespace lockdown::dhcp {
namespace {

using util::kSecondsPerHour;

// The oracle for the interval index: a scan of the whole log for the latest
// lease covering `ts`.
std::optional<net::MacAddress> LookupLinear(std::span<const Lease> log,
                                            net::Ipv4Address ip, util::Timestamp ts) {
  std::optional<net::MacAddress> best;
  util::Timestamp best_start = 0;
  for (const Lease& lease : log) {
    if (lease.ip == ip && lease.start <= ts && ts < lease.end &&
        (!best || lease.start >= best_start)) {
      best = lease.mac;
      best_start = lease.start;
    }
  }
  return best;
}

// The index's rule for any log, overlapping leases included: the IP's lease
// with the latest start at or before `ts` (the later one in the log on a
// tie), if it still covers `ts`.
std::optional<net::MacAddress> LookupLastStarted(std::span<const Lease> log,
                                                 net::Ipv4Address ip, util::Timestamp ts) {
  const Lease* last = nullptr;
  for (const Lease& lease : log) {
    if (lease.ip == ip && lease.start <= ts && (last == nullptr || lease.start >= last->start)) {
      last = &lease;
    }
  }
  if (last == nullptr || ts >= last->end) return std::nullopt;
  return last->mac;
}

TEST(IpToMacNormalizer, BasicLookup) {
  const net::Ipv4Address ip(10, 0, 0, 5);
  const std::vector<Lease> log = {
      {net::MacAddress(0xA), ip, 100, 200},
  };
  IpToMacNormalizer n(log);
  EXPECT_EQ(n.Lookup(ip, 100), net::MacAddress(0xA));
  EXPECT_EQ(n.Lookup(ip, 150), net::MacAddress(0xA));
  EXPECT_EQ(n.Lookup(ip, 199), net::MacAddress(0xA));
}

TEST(IpToMacNormalizer, IntervalBoundsAreHalfOpen) {
  const net::Ipv4Address ip(10, 0, 0, 5);
  const std::vector<Lease> log = {{net::MacAddress(0xA), ip, 100, 200}};
  IpToMacNormalizer n(log);
  EXPECT_FALSE(n.Lookup(ip, 99).has_value());
  EXPECT_FALSE(n.Lookup(ip, 200).has_value());
}

TEST(IpToMacNormalizer, UnknownIp) {
  IpToMacNormalizer n(std::vector<Lease>{});
  EXPECT_FALSE(n.Lookup(net::Ipv4Address(1, 2, 3, 4), 0).has_value());
  EXPECT_EQ(n.num_ips(), 0u);
}

TEST(IpToMacNormalizer, IpReuseAcrossDevices) {
  // The case the normalizer exists for: the same dynamic address held by
  // different MACs at different times.
  const net::Ipv4Address ip(10, 0, 0, 9);
  const std::vector<Lease> log = {
      {net::MacAddress(0xA), ip, 0, 100},
      {net::MacAddress(0xB), ip, 100, 250},
      {net::MacAddress(0xC), ip, 400, 500},
  };
  IpToMacNormalizer n(log);
  EXPECT_EQ(n.Lookup(ip, 50), net::MacAddress(0xA));
  EXPECT_EQ(n.Lookup(ip, 100), net::MacAddress(0xB));
  EXPECT_EQ(n.Lookup(ip, 249), net::MacAddress(0xB));
  EXPECT_FALSE(n.Lookup(ip, 300).has_value());  // gap between leases
  EXPECT_EQ(n.Lookup(ip, 450), net::MacAddress(0xC));
}

TEST(IpToMacNormalizer, UnsortedLogInput) {
  const net::Ipv4Address ip(10, 0, 0, 9);
  const std::vector<Lease> log = {
      {net::MacAddress(0xC), ip, 400, 500},
      {net::MacAddress(0xA), ip, 0, 100},
      {net::MacAddress(0xB), ip, 100, 250},
  };
  IpToMacNormalizer n(log);
  EXPECT_EQ(n.Lookup(ip, 50), net::MacAddress(0xA));
  EXPECT_EQ(n.Lookup(ip, 450), net::MacAddress(0xC));
}

TEST(IpToMacNormalizer, EqualStartGoesToTheLaterLease) {
  // More than 16 leases on one IP, so an unstable per-IP sort (libstdc++
  // switches from insertion sort at 16 elements) would have room to reorder
  // the tie. A lease appended later in the log with the start of an earlier
  // one wins the instant, wherever the tie sits in the IP's history.
  const net::Ipv4Address ip(10, 0, 0, 7);
  const net::MacAddress later(0xFFFF);
  for (const int leases : {17, 24, 33, 64}) {
    for (int j = 0; j < leases; ++j) {
      std::vector<Lease> log;
      for (int i = 0; i < leases; ++i) {
        log.push_back({net::MacAddress(static_cast<std::uint64_t>(i + 1)), ip,
                       i * 100, i * 100 + 100});
      }
      log.push_back({later, ip, j * 100, j * 100 + 50});
      const IpToMacNormalizer n(log);
      EXPECT_EQ(n.Lookup(ip, j * 100), later) << leases << " leases, tie at " << j;
      EXPECT_EQ(n.Lookup(ip, j * 100 + 49), later) << leases << " leases, tie at " << j;
      EXPECT_EQ(n.Lookup(ip, j * 100 + 49), LookupLinear(log, ip, j * 100 + 49));
    }
  }
}

TEST(IpToMacNormalizer, MatchesLinearReferenceOnChurnedLog) {
  // Property check: index lookups agree with the brute-force reference on a
  // realistic churned DHCP log with address recycling.
  ServerConfig cfg;
  cfg.lease_lifetime = 2 * kSecondsPerHour;
  cfg.renew_same_ip_prob = 0.6;
  Server server({net::Cidr(net::Ipv4Address(10, 0, 0, 0), 25)}, cfg,
                util::Pcg32(3));
  util::Pcg32 rng(5);
  for (util::Timestamp t = 0; t < 20 * 24 * kSecondsPerHour; t += kSecondsPerHour) {
    for (std::uint64_t m = 1; m <= 40; ++m) {
      if (rng.Bernoulli(0.25)) (void)server.Acquire(net::MacAddress(m), t);
    }
  }
  IpToMacNormalizer n(server.log());
  util::Pcg32 qrng(11);
  for (int q = 0; q < 2000; ++q) {
    const net::Ipv4Address ip(10, 0, 0,
                              static_cast<std::uint8_t>(qrng.NextBounded(128)));
    const util::Timestamp ts = qrng.UniformInt(0, 20 * 24 * kSecondsPerHour);
    const auto mac = n.Lookup(ip, ts);
    EXPECT_EQ(mac, LookupLinear(server.log(), ip, ts))
        << ip.ToString() << " @ " << ts;
    // The slot lookup is the same search: it names the same MAC, or misses.
    const std::uint32_t slot = n.LookupSlot(ip, ts);
    if (mac) {
      ASSERT_LT(slot, n.num_macs());
      EXPECT_EQ(n.mac(slot), *mac) << ip.ToString() << " @ " << ts;
    } else {
      EXPECT_EQ(slot, IpToMacNormalizer::kNoSlot) << ip.ToString() << " @ " << ts;
    }
  }
}

TEST(IpToMacNormalizer, CursorAnswersAsTheIndex) {
  // A hostile log: overlapping and nested leases, equal starts, and more
  // IPs than the cursor has entries, queried in random and in time order.
  std::vector<Lease> log;
  util::Pcg32 rng(17);
  for (int i = 0; i < 6000; ++i) {
    const util::Timestamp start = rng.UniformInt(0, 5000);
    log.push_back({net::MacAddress(1 + rng.NextBounded(300)),
                   net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.NextBounded(8)),
                                    static_cast<std::uint8_t>(rng.NextBounded(256))),
                   start, start + rng.UniformInt(0, 400)});
  }
  const IpToMacNormalizer n(log);
  for (const bool in_time_order : {false, true}) {
    IpToMacNormalizer::Cursor cursor(n);
    util::Pcg32 qrng(23);
    for (int q = 0; q < 40000; ++q) {
      const net::Ipv4Address ip(10, 0, static_cast<std::uint8_t>(qrng.NextBounded(9)),
                                static_cast<std::uint8_t>(qrng.NextBounded(256)));
      const util::Timestamp ts =
          in_time_order ? q / 8 + qrng.UniformInt(-20, 20) : qrng.UniformInt(-10, 5500);
      ASSERT_EQ(cursor.LookupSlot(ip, ts), n.LookupSlot(ip, ts))
          << ip.ToString() << " @ " << ts;
      ASSERT_EQ(n.Lookup(ip, ts), LookupLastStarted(log, ip, ts))
          << ip.ToString() << " @ " << ts;
    }
  }
}

TEST(IpToMacNormalizer, SlotsNumberMacsInFirstAppearanceOrder) {
  const net::Ipv4Address a(10, 0, 0, 1);
  const net::Ipv4Address b(10, 0, 0, 2);
  const std::vector<Lease> log = {
      {net::MacAddress(0xB), a, 500, 600},
      {net::MacAddress(0xA), b, 0, 100},
      {net::MacAddress(0xB), b, 200, 300},  // a MAC moving to another IP
      {net::MacAddress(0), a, 0, 100},      // the all-zero MAC is a MAC
  };
  IpToMacNormalizer n(log);
  ASSERT_EQ(n.num_macs(), 3u);
  EXPECT_EQ(n.mac(0), net::MacAddress(0xB));
  EXPECT_EQ(n.mac(1), net::MacAddress(0xA));
  EXPECT_EQ(n.mac(2), net::MacAddress(0));
  EXPECT_EQ(n.LookupSlot(a, 550), 0u);
  EXPECT_EQ(n.LookupSlot(b, 250), 0u);
  EXPECT_EQ(n.LookupSlot(b, 50), 1u);
  EXPECT_EQ(n.LookupSlot(a, 50), 2u);
  EXPECT_EQ(n.Lookup(a, 50), net::MacAddress(0));
  EXPECT_EQ(n.LookupSlot(a, 300), IpToMacNormalizer::kNoSlot);
}

}  // namespace
}  // namespace lockdown::dhcp
