#include "classify/iot.h"

#include <gtest/gtest.h>

namespace lockdown::classify {
namespace {

std::vector<DomainBytes> Contacted(std::initializer_list<const char*> domains) {
  std::vector<DomainBytes> list;
  for (const char* d : domains) list.push_back({d, 1000});
  return list;
}

IotDetector MakeDetector(double threshold = 0.5) {
  std::vector<IotDetector::Signature> sigs;
  sigs.push_back({"roku", {"roku.com", "rokucdn.com", "logs.roku.com"}});
  sigs.push_back({"tplink", {"tplinkcloud.com", "tplinkra.com"}});
  return IotDetector(std::move(sigs), threshold);
}

TEST(IotDetector, FullBackendContactMatches) {
  // IotMatch::platform views the detector's signature storage, so the
  // detector must outlive the match.
  const IotDetector detector = MakeDetector();
  const auto match = detector.Detect(
      Contacted({"roku.com", "rokucdn.com", "logs.roku.com"}));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->platform, "roku");
  EXPECT_DOUBLE_EQ(match->score, 1.0);
}

TEST(IotDetector, PartialContactAboveThresholdMatches) {
  const auto match =
      MakeDetector().Detect(Contacted({"roku.com", "logs.roku.com"}));
  ASSERT_TRUE(match.has_value());
  EXPECT_NEAR(match->score, 2.0 / 3.0, 1e-9);
}

TEST(IotDetector, SingleVendorHomepageVisitDoesNotMatch) {
  // A laptop that browsed roku.com only: 1/3 < 0.5.
  EXPECT_FALSE(MakeDetector().Detect(Contacted({"roku.com"})).has_value());
}

TEST(IotDetector, SubdomainsCount) {
  const IotDetector detector = MakeDetector();
  const auto match = detector.Detect(
      Contacted({"api.roku.com", "cdn.rokucdn.com"}));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->platform, "roku");
}

TEST(IotDetector, BestPlatformWins) {
  const IotDetector detector = MakeDetector();
  const auto match = detector.Detect(Contacted(
      {"roku.com", "rokucdn.com", "logs.roku.com", "tplinkcloud.com"}));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->platform, "roku");  // 3/3 beats 1/2
}

TEST(IotDetector, ThresholdIsInclusive) {
  // tplink: 1/2 == 0.5 matches at the paper's threshold.
  const IotDetector detector = MakeDetector(0.5);
  const auto match = detector.Detect(Contacted({"tplinkcloud.com"}));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->platform, "tplink");
}

TEST(IotDetector, HigherThresholdRejects) {
  EXPECT_FALSE(MakeDetector(0.9)
                   .Detect(Contacted({"roku.com", "logs.roku.com"}))
                   .has_value());
}

TEST(IotDetector, EmptyObservations) {
  EXPECT_FALSE(MakeDetector().Detect({}).has_value());
}

TEST(IotDetector, CatalogConstructionCoversIotBackends) {
  IotDetector detector(world::ServiceCatalog::Default());
  EXPECT_GE(detector.num_signatures(), 8u);
  EXPECT_DOUBLE_EQ(detector.threshold(), 0.5);  // the paper's threshold
  const auto match = detector.Detect(
      Contacted({"wyzecam.com", "wyze.com"}));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->platform, "wyze");
}

}  // namespace
}  // namespace lockdown::classify
