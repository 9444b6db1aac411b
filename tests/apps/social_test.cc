#include "apps/social.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "world/catalog.h"

namespace lockdown::apps {
namespace {

// Sessions over real catalog hosts; a tag is Instagram-only exactly when the
// catalog's instagram service owns its host, as the census tags it.
class SocialTest : public ::testing::Test {
 protected:
  std::vector<std::string> hosts_;

  Session MakeSession(std::initializer_list<const char*> hosts) {
    Session s;
    s.start = 0;
    s.end = 600;
    for (const char* h : hosts) {
      s.domains.push_back(static_cast<std::uint32_t>(hosts_.size()));
      hosts_.emplace_back(h);
    }
    return s;
  }

  SocialApp Classify(const Session& s) const {
    const world::ServiceCatalog& catalog = world::ServiceCatalog::Default();
    const auto instagram = catalog.FindByName("instagram");
    return ClassifySession(s, [&](std::uint32_t tag) {
      return catalog.FindByHost(hosts_[tag]) == instagram;
    });
  }
};

TEST_F(SocialTest, PureFacebookSessionIsFacebook) {
  EXPECT_EQ(Classify(MakeSession({"facebook.com", "facebook.net", "fbcdn.net"})),
            SocialApp::kFacebook);
}

TEST_F(SocialTest, AnyInstagramDomainMakesSessionInstagram) {
  // "if any of the domains in a set of overlapping flows delivers
  //  Instagram-only content ... we mark the entire session as an Instagram
  //  session" (§5.2).
  EXPECT_EQ(Classify(MakeSession({"fbcdn.net", "instagram.com"})),
            SocialApp::kInstagram);
  EXPECT_EQ(Classify(MakeSession({"facebook.com", "fbcdn.net",
                                  "scontent.cdninstagram.com"})),
            SocialApp::kInstagram);
}

TEST_F(SocialTest, SharedCdnOnlySessionDefaultsToFacebook) {
  // The heuristic "may overstate Facebook usage and under-represent
  // Instagram" — a session with only shared domains is labelled Facebook.
  EXPECT_EQ(Classify(MakeSession({"fbcdn.net"})), SocialApp::kFacebook);
}

TEST_F(SocialTest, AppNames) {
  EXPECT_STREQ(ToString(SocialApp::kFacebook), "facebook");
  EXPECT_STREQ(ToString(SocialApp::kInstagram), "instagram");
  EXPECT_STREQ(ToString(SocialApp::kTikTok), "tiktok");
}

}  // namespace
}  // namespace lockdown::apps
