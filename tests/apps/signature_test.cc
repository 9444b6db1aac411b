#include "apps/signature.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lockdown::apps {
namespace {

SignatureRegistry MakeRegistry() {
  SignatureRegistry reg;
  reg.Add(DomainSignature("zoom", {"zoom.us"}));
  reg.Add(DomainSignature("steam", {"steampowered.com", "steamcontent.com"}));
  reg.Add(DomainSignature("facebook", {"facebook.com", "fbcdn.net"}));
  return reg;
}

// The oracle for the suffix index: the first signature, in id order, that
// matches `host`.
std::optional<AppId> MatchLinear(const SignatureRegistry& reg, std::string_view host) {
  for (AppId id = 0; id < reg.size(); ++id) {
    if (reg.Get(id).Matches(host)) return id;
  }
  return std::nullopt;
}

TEST(DomainSignature, Matching) {
  DomainSignature sig("steam", {"steampowered.com", "steamcontent.com"});
  EXPECT_TRUE(sig.Matches("steampowered.com"));
  EXPECT_TRUE(sig.Matches("store.steampowered.com"));
  EXPECT_TRUE(sig.Matches("cache1.steamcontent.com"));
  EXPECT_FALSE(sig.Matches("steam.com"));
  EXPECT_FALSE(sig.Matches("notsteampowered.com"));
  EXPECT_EQ(sig.name(), "steam");
}

TEST(SignatureRegistry, IndexedMatch) {
  const auto reg = MakeRegistry();
  EXPECT_EQ(reg.Get(*reg.Match("us04web.zoom.us")).name(), "zoom");
  EXPECT_EQ(reg.Get(*reg.Match("fbcdn.net")).name(), "facebook");
  EXPECT_FALSE(reg.Match("example.com").has_value());
  EXPECT_FALSE(reg.Match("zoom.usa").has_value());
}

TEST(SignatureRegistry, IndexAgreesWithLinearScan) {
  const auto reg = MakeRegistry();
  const char* hosts[] = {"zoom.us",          "a.b.zoom.us",
                         "steamcontent.com", "cdn.steamcontent.com",
                         "facebook.com",     "x.facebook.com",
                         "fbcdn.net",        "example.com",
                         "us",               "com",
                         "zoomsteam.net"};
  for (const char* h : hosts) {
    EXPECT_EQ(reg.Match(h), MatchLinear(reg, h)) << h;
  }
}

TEST(SignatureRegistry, PropertyIndexEqualsLinearOnRandomHosts) {
  const auto reg = MakeRegistry();
  util::Pcg32 rng(99);
  const char* labels[] = {"zoom", "us", "steampowered", "com", "a", "fbcdn",
                          "net", "x", "facebook", "steamcontent"};
  for (int i = 0; i < 2000; ++i) {
    std::string host;
    const int n = 1 + static_cast<int>(rng.NextBounded(4));
    for (int k = 0; k < n; ++k) {
      if (k) host += '.';
      host += labels[rng.NextBounded(10)];
    }
    EXPECT_EQ(reg.Match(host), MatchLinear(reg, host)) << host;
  }
}

TEST(SignatureRegistry, RejectsDuplicateDomains) {
  SignatureRegistry reg;
  reg.Add(DomainSignature("a", {"x.example"}));
  EXPECT_THROW(reg.Add(DomainSignature("b", {"x.example"})), std::invalid_argument);
}

TEST(SignatureRegistry, IdsStable) {
  SignatureRegistry reg;
  const AppId a = reg.Add(DomainSignature("a", {"a.example"}));
  const AppId b = reg.Add(DomainSignature("b", {"b.example"}));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(reg.size(), 2u);
}

}  // namespace
}  // namespace lockdown::apps
