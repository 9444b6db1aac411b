#include "apps/social.h"

namespace lockdown::apps {

const char* ToString(SocialApp app) noexcept {
  switch (app) {
    case SocialApp::kFacebook: return "facebook";
    case SocialApp::kInstagram: return "instagram";
    case SocialApp::kTikTok: return "tiktok";
  }
  return "???";
}

}  // namespace lockdown::apps
