// The Facebook/Instagram disambiguation heuristic (paper §5.2):
//
//  "the aforementioned Facebook domains serve content for both Facebook and
//   Instagram services. We use a simple heuristic to differentiate... if any
//   of the domains in a set of overlapping flows delivers Instagram-only
//   content (e.g. traffic from instagram.com), then we mark the entire
//   session as an Instagram session. Otherwise, we mark the session as
//   Facebook."
//
// Which domain belongs to which app is the service catalog's answer
// (world::ServiceCatalog::FindByHost); the heuristic only reads it.
#pragma once

#include <cstdint>

#include "apps/sessionizer.h"

namespace lockdown::apps {

enum class SocialApp : std::uint8_t { kFacebook, kInstagram, kTikTok };

[[nodiscard]] const char* ToString(SocialApp app) noexcept;

/// Applies the disambiguation heuristic to a merged Facebook-family session,
/// given a predicate telling whether a domain tag serves Instagram-only
/// content.
template <typename IsInstagramOnly>
[[nodiscard]] SocialApp ClassifySession(const Session& session,
                                        IsInstagramOnly&& instagram_only) {
  for (const std::uint32_t tag : session.domains) {
    if (instagram_only(tag)) return SocialApp::kInstagram;
  }
  return SocialApp::kFacebook;
}

}  // namespace lockdown::apps
