#include "classify/classifier.h"

#include <gtest/gtest.h>

namespace lockdown::classify {
namespace {

class ClassifierTest : public ::testing::Test {
 protected:
  ClassifierTest()
      : classifier_(DeviceClassifier::Default(world::ServiceCatalog::Default())) {}

  static DeviceObservations WithOui(std::uint32_t oui) {
    DeviceObservations obs;
    obs.oui = oui;
    return obs;
  }

  DeviceClassifier classifier_;
  /// Ordinary web traffic: no class evidence of its own.
  const std::vector<DomainBytes> web_ = {{"www.us-site-001.net", 1000}};
};

TEST_F(ClassifierTest, NintendoTrafficDominanceWins) {
  const std::vector<DomainBytes> domains = {{"npln.srv.nintendo.net", 90000},
                                            {"netflix.com", 10000}};
  const auto c = classifier_.Classify(DeviceObservations{}, domains);
  EXPECT_EQ(c.device_class, DeviceClass::kGameConsole);
  EXPECT_EQ(c.evidence, "nintendo-traffic");
}

TEST_F(ClassifierTest, UaEvidenceBeatsOui) {
  // A phone with an Apple OUI (ambiguous) plus an iPhone UA.
  DeviceObservations obs = WithOui(0xA483E7);
  obs.AddUserAgent("Mozilla/5.0 (iPhone; CPU iPhone OS 13_3_1 like Mac OS X)");
  const auto c = classifier_.Classify(obs, web_);
  EXPECT_EQ(c.device_class, DeviceClass::kMobile);
  EXPECT_EQ(c.evidence, "ua");
}

TEST_F(ClassifierTest, UaMajorityVote) {
  DeviceObservations obs;
  obs.AddUserAgent("Mozilla/5.0 (Windows NT 10.0; Win64; x64)");
  obs.AddUserAgent("Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X)");
  obs.AddUserAgent("Mozilla/5.0 (Windows NT 6.1; Win64; x64)");
  EXPECT_EQ(classifier_.Classify(obs, {}).device_class, DeviceClass::kLaptopDesktop);
}

TEST_F(ClassifierTest, ConsoleUaWinsOutright) {
  DeviceObservations obs;
  obs.AddUserAgent("Mozilla/5.0 (Windows NT 10.0)");
  obs.AddUserAgent("Mozilla/5.0 (Nintendo Switch; WifiWebAuthApplet)");
  EXPECT_EQ(classifier_.Classify(obs, {}).device_class, DeviceClass::kGameConsole);
}

TEST_F(ClassifierTest, OuiHintsWithoutUa) {
  EXPECT_EQ(classifier_.Classify(WithOui(0x54BF64), web_).device_class,
            DeviceClass::kLaptopDesktop);  // Dell
  EXPECT_EQ(classifier_.Classify(WithOui(0xE8508B), web_).device_class,
            DeviceClass::kMobile);  // Samsung phone
  EXPECT_EQ(classifier_.Classify(WithOui(0x50C7BF), web_).device_class,
            DeviceClass::kIot);  // TP-Link
  EXPECT_EQ(classifier_.Classify(WithOui(0x98B6E9), web_).device_class,
            DeviceClass::kGameConsole);  // Nintendo
}

TEST_F(ClassifierTest, AppleOuiAloneIsUnknown) {
  // Apple ships laptops AND phones: OUI alone must stay conservative — the
  // paper's dominant error mode is exactly such unknown omissions.
  const auto c = classifier_.Classify(WithOui(0xA483E7), web_);
  EXPECT_EQ(c.device_class, DeviceClass::kUnknown);
}

TEST_F(ClassifierTest, RandomizedMacIgnoresOui) {
  DeviceObservations obs = WithOui(0x54BF64);  // Dell bits, but...
  obs.locally_administered = true;             // ...randomized
  EXPECT_EQ(classifier_.Classify(obs, web_).device_class, DeviceClass::kUnknown);
}

TEST_F(ClassifierTest, IotSignatureAsFallback) {
  DeviceObservations obs;
  obs.locally_administered = true;
  const std::vector<DomainBytes> domains = {{"wyzecam.com", 500}, {"wyze.com", 500}};
  const auto c = classifier_.Classify(obs, domains);
  EXPECT_EQ(c.device_class, DeviceClass::kIot);
  EXPECT_EQ(c.evidence, "iot-signature");
}

TEST_F(ClassifierTest, NoEvidenceIsUnknown) {
  DeviceObservations obs;
  obs.locally_administered = true;
  const std::vector<DomainBytes> domains = {{"www.us-site-004.net", 12345}};
  const auto c = classifier_.Classify(obs, domains);
  EXPECT_EQ(c.device_class, DeviceClass::kUnknown);
  EXPECT_EQ(c.evidence, "none");
}

TEST_F(ClassifierTest, TvUaClassifiesAsIot) {
  DeviceObservations obs;
  obs.AddUserAgent("Roku/DVP-9.10 (519.10E04111A)");
  EXPECT_EQ(classifier_.Classify(obs, {}).device_class, DeviceClass::kIot);
}

}  // namespace
}  // namespace lockdown::classify
