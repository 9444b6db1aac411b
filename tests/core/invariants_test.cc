// Cross-seed property tests: structural invariants of the pipeline that must
// hold for ANY configuration, not just the calibrated default.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/pipeline.h"
#include "core/study.h"
#include "sim/timeline.h"

namespace lockdown::core {
namespace {

class InvariantTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // One collection per seed, shared across the suite's tests.
  static const CollectionResult& Result(std::uint64_t seed) {
    static std::map<std::uint64_t, CollectionResult> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      it = cache.emplace(seed, MeasurementPipeline::Collect(
                                   StudyConfig::Small(120, seed)))
               .first;
    }
    return it->second;
  }

  InvariantTest() : result_(Result(GetParam())) {}

  const CollectionResult& result_;
};

TEST_P(InvariantTest, FlowTimestampsInsideStudyWindow) {
  const auto start = util::StudyCalendar::StartTs();
  const auto end = util::StudyCalendar::EndTs() + util::kSecondsPerDay;  // spill
  for (const Flow& f : result_.dataset.flows()) {
    const auto ts = Dataset::StartOf(f);
    EXPECT_GE(ts, start);
    EXPECT_LT(ts, end);
    EXPECT_GE(f.duration_s, 0.0F);
  }
}

TEST_P(InvariantTest, NoTapExcludedServersInDataset) {
  const auto& catalog = world::ServiceCatalog::Default();
  for (const Flow& f : result_.dataset.flows()) {
    const auto svc = catalog.FindByIp(f.server_ip);
    ASSERT_TRUE(svc.has_value());
    EXPECT_FALSE(catalog.Get(*svc).tap_excluded);
  }
}

TEST_P(InvariantTest, EveryRetainedDeviceMeetsVisitorThreshold) {
  std::unordered_map<DeviceIndex, std::unordered_set<int>> days;
  for (const Flow& f : result_.dataset.flows()) {
    days[f.device].insert(Dataset::DayOf(f));
  }
  for (const auto& [dev, active_days] : days) {
    EXPECT_GE(active_days.size(), 14u) << "device " << dev;
  }
}

TEST_P(InvariantTest, DomainsConsistentWithServerAddresses) {
  // A DNS-mapped domain must belong to the service owning the address: the
  // contemporaneous join may miss (kNoDomain) but must never cross services.
  const auto& catalog = world::ServiceCatalog::Default();
  for (const Flow& f : result_.dataset.flows()) {
    if (f.domain == kNoDomain) continue;
    const auto by_ip = catalog.FindByIp(f.server_ip);
    const auto by_host = catalog.FindByHost(result_.dataset.DomainName(f.domain));
    ASSERT_TRUE(by_ip.has_value());
    ASSERT_TRUE(by_host.has_value());
    EXPECT_EQ(*by_ip, *by_host) << result_.dataset.DomainName(f.domain);
  }
}

TEST_P(InvariantTest, StudyAnalysesAreInternallyConsistent) {
  const LockdownStudy study(result_.dataset, world::ServiceCatalog::Default());
  // Post-shutdown devices all have traffic after online-term start.
  const int online = util::StudyCalendar::DayIndex(util::StudyCalendar::kBreakEnd);
  std::unordered_set<DeviceIndex> post(study.PostShutdownDevices().begin(),
                                       study.PostShutdownDevices().end());
  std::unordered_set<DeviceIndex> with_late_traffic;
  for (const Flow& f : result_.dataset.flows()) {
    if (Dataset::DayOf(f) >= online) with_late_traffic.insert(f.device);
  }
  EXPECT_EQ(post, with_late_traffic);

  // Active-device rows never exceed the device count and class columns sum
  // to the total.
  for (const auto& row : study.ActiveDevicesPerDay()) {
    int sum = 0;
    for (int c : row.by_class) sum += c;
    EXPECT_EQ(sum, row.total);
    EXPECT_LE(row.total, static_cast<int>(result_.dataset.num_devices()));
  }

  // The split never labels more devices than exist, and labeled devices are
  // post-shutdown members.
  const auto& split = study.Split();
  EXPECT_LE(split.num_international, post.size());
  for (DeviceIndex i = 0; i < result_.dataset.num_devices(); ++i) {
    if (split.international[i]) {
      EXPECT_TRUE(post.count(i));
    }
  }
}

TEST_P(InvariantTest, CategoryVolumesSumToPostShutdownTraffic) {
  const LockdownStudy study(result_.dataset, world::ServiceCatalog::Default());
  double categorized = 0.0;
  for (const auto& row : study.CategoryVolumes()) {
    categorized += row.education + row.video_conferencing + row.streaming +
                   row.social_media + row.gaming + row.messaging + row.other;
  }
  double expected = 0.0;
  std::unordered_set<DeviceIndex> post(study.PostShutdownDevices().begin(),
                                       study.PostShutdownDevices().end());
  for (const Flow& f : result_.dataset.flows()) {
    if (post.count(f.device) && Dataset::DayOf(f) < util::StudyCalendar::NumDays()) {
      expected += static_cast<double>(f.total_bytes());
    }
  }
  EXPECT_NEAR(categorized, expected, expected * 1e-9);
}

TEST_P(InvariantTest, DiurnalShapesNormalized) {
  const LockdownStudy study(result_.dataset, world::ServiceCatalog::Default());
  const auto shape = study.DiurnalShape(0, 28);
  double wd = 0.0, we = 0.0;
  for (int h = 0; h < 24; ++h) {
    EXPECT_GE(shape.weekday[static_cast<std::size_t>(h)], 0.0);
    wd += shape.weekday[static_cast<std::size_t>(h)];
    we += shape.weekend[static_cast<std::size_t>(h)];
  }
  EXPECT_NEAR(wd, 1.0, 1e-9);
  EXPECT_NEAR(we, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantTest,
                         ::testing::Values(2020ULL, 7ULL, 90210ULL, 424242ULL));

}  // namespace
}  // namespace lockdown::core
