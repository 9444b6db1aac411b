#include "classify/switch_detect.h"

#include <gtest/gtest.h>

namespace lockdown::classify {
namespace {

SwitchDetector MakeDetector(double threshold = 0.5) {
  return SwitchDetector(
      {"npln.srv.nintendo.net", "atum.hac.lp1.d4c.nintendo.net",
       "conntest.nintendowifi.net"},
      threshold);
}

std::vector<DomainBytes> Obs(std::uint64_t nintendo_bytes, std::uint64_t other_bytes) {
  std::vector<DomainBytes> domains;
  if (nintendo_bytes > 0) domains.push_back({"npln.srv.nintendo.net", nintendo_bytes});
  if (other_bytes > 0) domains.push_back({"netflix.com", other_bytes});
  return domains;
}

TEST(SwitchDetector, PureNintendoTrafficIsSwitch) {
  EXPECT_TRUE(MakeDetector().IsSwitch(Obs(1000, 0)));
}

TEST(SwitchDetector, MajorityNintendoIsSwitch) {
  // "at least 50% of their traffic is to the identified Nintendo servers".
  EXPECT_TRUE(MakeDetector().IsSwitch(Obs(600, 400)));
  EXPECT_TRUE(MakeDetector().IsSwitch(Obs(500, 500)));  // exactly 50%
}

TEST(SwitchDetector, MinorityNintendoIsNotSwitch) {
  EXPECT_FALSE(MakeDetector().IsSwitch(Obs(400, 600)));
  // A laptop that downloaded one game update but mostly streams.
  EXPECT_FALSE(MakeDetector().IsSwitch(Obs(1, 1000000)));
}

TEST(SwitchDetector, NoTrafficIsNotSwitch) {
  EXPECT_FALSE(MakeDetector().IsSwitch({}));
  EXPECT_DOUBLE_EQ(MakeDetector().NintendoShare({}), 0.0);
}

TEST(SwitchDetector, ShareComputation) {
  EXPECT_NEAR(MakeDetector().NintendoShare(Obs(750, 250)), 0.75, 1e-9);
}

TEST(SwitchDetector, SubdomainsMatch) {
  const std::vector<DomainBytes> domains = {{"east.npln.srv.nintendo.net", 100}};
  EXPECT_TRUE(MakeDetector().IsSwitch(domains));
}

TEST(SwitchDetector, CatalogConstruction) {
  SwitchDetector detector(world::ServiceCatalog::Default());
  const std::vector<DomainBytes> sw = {{"npln.srv.nintendo.net", 5000},
                                       {"conntest.nintendowifi.net", 100}};
  EXPECT_TRUE(detector.IsSwitch(sw));
  const std::vector<DomainBytes> laptop = {
      {"netflix.com", 100000},
      {"accounts.nintendo.com", 50}};  // bought a gift card
  EXPECT_FALSE(detector.IsSwitch(laptop));
}

}  // namespace
}  // namespace lockdown::classify
