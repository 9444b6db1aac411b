// Hand-crafted-dataset unit tests for LockdownStudy: tiny datasets built
// flow by flow, so each analysis' arithmetic is checked exactly (the
// simulator-driven integration tests in study_test.cc check shapes, not
// sums).
#include <gtest/gtest.h>

#include <vector>

#include "core/study.h"

#include "sorted_flows.h"

namespace lockdown::core {
namespace {

using util::StudyCalendar;
using util::Timestamp;

constexpr std::uint32_t kSecondsAt = util::kSecondsPerDay;

int Day(int month, int day) {
  return StudyCalendar::DayIndex(util::CivilDate{2020, month, day});
}

std::uint32_t Offset(int month, int day, int hour = 12) {
  return static_cast<std::uint32_t>(Day(month, day)) * kSecondsAt +
         static_cast<std::uint32_t>(hour) * util::kSecondsPerHour;
}

net::Ipv4Address ServiceIp(const char* name, std::uint64_t index = 7) {
  const auto& cat = world::ServiceCatalog::Default();
  return cat.Get(*cat.FindByName(name)).block.At(index);
}

/// Builder for tiny datasets.
class StudyBuilder {
 public:
  DeviceIndex AddMobileDevice() {
    const DeviceIndex dev = ds_.AddDevice(privacy::DeviceId{next_id_++});
    ds_.device_mutable(dev).observations.AddUserAgent(
        "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3_1 like Mac OS X)");
    return dev;
  }

  DeviceIndex AddLaptopDevice() {
    const DeviceIndex dev = ds_.AddDevice(privacy::DeviceId{next_id_++});
    ds_.device_mutable(dev).observations.AddUserAgent(
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64)");
    return dev;
  }

  /// Adds a flow to `host` (DNS-mapped) or a raw address when host is null.
  void AddFlow(DeviceIndex dev, std::uint32_t start, double duration_s,
               const char* host, net::Ipv4Address server,
               std::uint64_t bytes_down, std::uint64_t bytes_up = 0) {
    Flow f;
    f.start_offset_s = start;
    f.duration_s = static_cast<float>(duration_s);
    f.device = dev;
    f.domain = host ? ds_.InternDomain(host) : kNoDomain;
    f.server_ip = server;
    f.server_port = 443;
    f.bytes_down = bytes_down;
    f.bytes_up = bytes_up;
    flows_.push_back(f);
  }

  /// Marks the device post-shutdown with a token April flow.
  void MakePostShutdown(DeviceIndex dev) {
    AddFlow(dev, Offset(4, 20), 10, "www.us-site-000.net",
            ServiceIp("web-us-000"), 1000);
  }

  LockdownStudy Build() {
    testing::SetFlowsSorted(ds_, flows_);
    return LockdownStudy(ds_, world::ServiceCatalog::Default());
  }

 private:
  Dataset ds_;
  std::vector<Flow> flows_;
  std::uint64_t next_id_ = 1;
};

TEST(StudyUnit, ZoomDailyCountsDomainAndIpListFlows) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddLaptopDevice();
  b.MakePostShutdown(dev);
  // Domain-matched Zoom flow.
  b.AddFlow(dev, Offset(4, 15, 9), 3600, "us04web.zoom.us", ServiceIp("zoom"),
            100'000'000);
  // Raw-IP media relay flow (current list).
  b.AddFlow(dev, Offset(4, 15, 10), 3600, nullptr, ServiceIp("zoom-media"),
            400'000'000);
  // Raw-IP legacy relay flow (wayback list).
  b.AddFlow(dev, Offset(4, 15, 11), 3600, nullptr, ServiceIp("zoom-media-legacy"),
            200'000'000);
  // Non-Zoom flow the same day.
  b.AddFlow(dev, Offset(4, 15, 12), 600, "netflix.com", ServiceIp("netflix"),
            999'000'000);
  const auto study = b.Build();
  const auto zoom = study.ZoomDailyBytes();
  EXPECT_DOUBLE_EQ(zoom.at(Day(4, 15)), 700'000'000.0);
  EXPECT_DOUBLE_EQ(zoom.at(Day(4, 16)), 0.0);
}

TEST(StudyUnit, ZoomExcludedFromFig4Medians) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddLaptopDevice();
  b.MakePostShutdown(dev);
  b.AddFlow(dev, Offset(4, 15, 9), 3600, "zoom.us", ServiceIp("zoom"), 5'000'000'000);
  b.AddFlow(dev, Offset(4, 15, 12), 600, "netflix.com", ServiceIp("netflix"),
            300'000'000);
  const auto study = b.Build();
  const auto rows = study.MedianBytesExcludingZoom();
  EXPECT_DOUBLE_EQ(rows[static_cast<std::size_t>(Day(4, 15))].dom_mobile_desktop,
                   300'000'000.0);
}

TEST(StudyUnit, SocialDurationMergesOverlappingFlows) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddMobileDevice();
  b.MakePostShutdown(dev);
  // One 30-minute Facebook session made of two overlapping flows.
  b.AddFlow(dev, Offset(2, 10, 20), 1800, "facebook.com", ServiceIp("facebook"),
            10'000'000);
  b.AddFlow(dev, Offset(2, 10, 20) + 600, 1500, "fbcdn.net", ServiceIp("facebook"),
            5'000'000);
  const auto study = b.Build();
  const auto box = study.SocialDurations(apps::SocialApp::kFacebook, 2);
  ASSERT_EQ(box.domestic.n, 1u);
  // Union bounds: start .. start+600+1500 = 2100 s = 0.583 h.
  EXPECT_NEAR(box.domestic.median, 2100.0 / 3600.0, 1e-9);
}

TEST(StudyUnit, InstagramOnlyDomainStealsWholeSession) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddMobileDevice();
  b.MakePostShutdown(dev);
  b.AddFlow(dev, Offset(2, 11, 20), 1200, "facebook.com", ServiceIp("facebook"),
            1'000'000);
  b.AddFlow(dev, Offset(2, 11, 20) + 60, 600, "instagram.com",
            ServiceIp("instagram"), 1'000'000);
  const auto study = b.Build();
  const auto fb = study.SocialDurations(apps::SocialApp::kFacebook, 2);
  const auto ig = study.SocialDurations(apps::SocialApp::kInstagram, 2);
  EXPECT_EQ(fb.domestic.n, 0u);  // the merged session went to Instagram
  ASSERT_EQ(ig.domestic.n, 1u);
  EXPECT_NEAR(ig.domestic.median, 1200.0 / 3600.0, 1e-9);
}

TEST(StudyUnit, DisjointSessionsSplitBetweenApps) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddMobileDevice();
  b.MakePostShutdown(dev);
  b.AddFlow(dev, Offset(2, 12, 9), 600, "facebook.com", ServiceIp("facebook"),
            1'000'000);
  b.AddFlow(dev, Offset(2, 12, 21), 900, "instagram.com", ServiceIp("instagram"),
            1'000'000);
  const auto study = b.Build();
  const auto fb = study.SocialDurations(apps::SocialApp::kFacebook, 2);
  const auto ig = study.SocialDurations(apps::SocialApp::kInstagram, 2);
  ASSERT_EQ(fb.domestic.n, 1u);
  ASSERT_EQ(ig.domestic.n, 1u);
  EXPECT_NEAR(fb.domestic.median, 600.0 / 3600.0, 1e-9);
  EXPECT_NEAR(ig.domestic.median, 900.0 / 3600.0, 1e-9);
}

TEST(StudyUnit, SocialDurationsOnlyCountMobileDevices) {
  StudyBuilder b;
  const DeviceIndex laptop = b.AddLaptopDevice();
  b.MakePostShutdown(laptop);
  b.AddFlow(laptop, Offset(2, 10, 20), 1800, "facebook.com", ServiceIp("facebook"),
            10'000'000);
  const auto study = b.Build();
  EXPECT_EQ(study.SocialDurations(apps::SocialApp::kFacebook, 2).domestic.n, 0u);
}

TEST(StudyUnit, SteamUsageCountsBytesAndConnections) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddLaptopDevice();
  b.MakePostShutdown(dev);
  b.AddFlow(dev, Offset(3, 5, 20), 3600, "steampowered.com", ServiceIp("steam"),
            40'000'000, 2'000'000);
  b.AddFlow(dev, Offset(3, 5, 21), 3600, "steamcontent.com", ServiceIp("steam"),
            60'000'000);
  b.AddFlow(dev, Offset(3, 6, 20), 100, "netflix.com", ServiceIp("netflix"),
            500'000'000);  // not steam
  const auto study = b.Build();
  const auto march = study.SteamUsage(3);
  ASSERT_EQ(march.dom_bytes.n, 1u);
  EXPECT_DOUBLE_EQ(march.dom_bytes.median, 102'000'000.0);
  EXPECT_DOUBLE_EQ(march.dom_conns.median, 2.0);
  EXPECT_EQ(study.SteamUsage(4).dom_bytes.n, 0u);
}

TEST(StudyUnit, SwitchGameplayRequiresFebAndMayActivity) {
  StudyBuilder b;
  // Switch A: active Feb + May; Switch B: Feb only.
  const DeviceIndex a = b.AddMobileDevice();  // UA irrelevant: traffic rule wins
  const DeviceIndex bb = b.AddMobileDevice();
  for (const DeviceIndex dev : {a, bb}) {
    b.AddFlow(dev, Offset(2, 10, 20), 3600, "npln.srv.nintendo.net",
              ServiceIp("nintendo-gameplay"), 50'000'000);
    b.AddFlow(dev, Offset(2, 11, 8), 60, "conntest.nintendowifi.net",
              ServiceIp("nintendo-services"), 2'000);
  }
  b.AddFlow(a, Offset(5, 10, 20), 3600, "npln.srv.nintendo.net",
            ServiceIp("nintendo-gameplay"), 30'000'000);
  // Non-gameplay download for A in May: must not count toward Fig. 8.
  b.AddFlow(a, Offset(5, 11, 20), 1200, "atum.hac.lp1.d4c.nintendo.net",
            ServiceIp("nintendo-services"), 2'000'000'000);
  const auto study = b.Build();
  const auto series = study.SwitchGameplayDaily(/*ma_window=*/1);
  // Only A qualifies; B's February gameplay is excluded from the series.
  EXPECT_DOUBLE_EQ(series.at(Day(2, 10)), 50'000'000.0);
  EXPECT_DOUBLE_EQ(series.at(Day(5, 10)), 30'000'000.0);
  EXPECT_DOUBLE_EQ(series.at(Day(5, 11)), 0.0);  // download filtered out
}

TEST(StudyUnit, CountSwitchesTracksFirstAppearance) {
  StudyBuilder b;
  // An April-new Switch (first seen 4/10, active through May).
  const DeviceIndex dev = b.AddMobileDevice();
  for (int d = 10; d < 30; ++d) {
    b.AddFlow(dev, Offset(4, d, 20), 1800, "npln.srv.nintendo.net",
              ServiceIp("nintendo-gameplay"), 5'000'000);
  }
  const auto study = b.Build();
  const auto counts = study.CountSwitches();
  EXPECT_EQ(counts.active_february, 0u);
  EXPECT_EQ(counts.active_post_shutdown, 1u);
  EXPECT_EQ(counts.new_in_april_may, 1u);
}

TEST(StudyUnit, NintendoShareComesFromTheDeviceFlows) {
  // Nothing but the flows says this device is a Switch: its UA is a phone's,
  // and no per-device byte totals are kept beside the flow array.
  StudyBuilder b;
  const DeviceIndex sw = b.AddMobileDevice();
  const DeviceIndex phone = b.AddMobileDevice();
  b.AddFlow(sw, Offset(4, 10, 20), 1800, "npln.srv.nintendo.net",
            ServiceIp("nintendo-gameplay"), 6'000);
  b.AddFlow(sw, Offset(4, 11, 20), 600, "netflix.com", ServiceIp("netflix"), 5'000);
  b.AddFlow(sw, Offset(4, 12, 20), 600, nullptr, ServiceIp("netflix"), 1'000'000);
  b.AddFlow(phone, Offset(4, 10, 20), 600, "npln.srv.nintendo.net",
            ServiceIp("nintendo-gameplay"), 4'000);
  b.AddFlow(phone, Offset(4, 11, 20), 600, "netflix.com", ServiceIp("netflix"),
            5'000);
  const auto study = b.Build();
  // 6000 of 11000 domain-attributed bytes; raw-IP bytes do not count.
  EXPECT_EQ(study.classifications()[sw].device_class,
            classify::DeviceClass::kGameConsole);
  EXPECT_TRUE(study.context().IsSwitchDevice(sw));
  EXPECT_EQ(study.classifications()[phone].device_class,
            classify::DeviceClass::kMobile);
  EXPECT_FALSE(study.context().IsSwitchDevice(phone));
  EXPECT_EQ(study.CountSwitches().active_post_shutdown, 1u);
}

TEST(StudyUnit, InternationalSplitByFebruaryMidpoint) {
  StudyBuilder b;
  const DeviceIndex intl = b.AddMobileDevice();
  const DeviceIndex dom = b.AddMobileDevice();
  b.MakePostShutdown(intl);
  b.MakePostShutdown(dom);
  b.AddFlow(intl, Offset(2, 5, 20), 600, "bilibili.com", ServiceIp("bilibili"),
            50'000'000);
  b.AddFlow(dom, Offset(2, 5, 20), 600, "netflix.com", ServiceIp("netflix"),
            50'000'000);
  b.AddFlow(dom, Offset(2, 6, 20), 600, "facebook.com", ServiceIp("facebook"),
            50'000'000);
  const auto study = b.Build();
  const auto& split = study.Split();
  EXPECT_TRUE(split.international[intl]);
  EXPECT_FALSE(split.international[dom]);
  EXPECT_EQ(split.num_international, 1u);
}

TEST(StudyUnit, MarchTrafficDoesNotAffectSplit) {
  // The paper geolocates February traffic only.
  StudyBuilder b;
  const DeviceIndex dev = b.AddMobileDevice();
  b.MakePostShutdown(dev);
  b.AddFlow(dev, Offset(2, 5, 20), 600, "netflix.com", ServiceIp("netflix"),
            50'000'000);
  b.AddFlow(dev, Offset(2, 6, 20), 600, "facebook.com", ServiceIp("facebook"),
            50'000'000);
  b.AddFlow(dev, Offset(3, 5, 20), 600, "bilibili.com", ServiceIp("bilibili"),
            900'000'000);  // huge, but in March
  const auto study = b.Build();
  EXPECT_FALSE(study.Split().international[dev]);
}

TEST(StudyUnit, ActiveDevicesCountDistinctDays) {
  StudyBuilder b;
  const DeviceIndex dev = b.AddMobileDevice();
  b.MakePostShutdown(dev);
  b.AddFlow(dev, Offset(2, 3, 9), 60, "netflix.com", ServiceIp("netflix"), 1000);
  b.AddFlow(dev, Offset(2, 3, 21), 60, "netflix.com", ServiceIp("netflix"), 1000);
  const auto study = b.Build();
  const auto rows = study.ActiveDevicesPerDay();
  EXPECT_EQ(rows[static_cast<std::size_t>(Day(2, 3))].total, 1);
  EXPECT_EQ(rows[static_cast<std::size_t>(Day(2, 4))].total, 0);
  EXPECT_EQ(rows[static_cast<std::size_t>(Day(2, 3))]
                .by_class[static_cast<std::size_t>(ReportClass::kMobile)],
            1);
}

}  // namespace
}  // namespace lockdown::core
